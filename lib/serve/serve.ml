(** [phpfc serve] — the long-lived compile service and its one-shot
    batch/replay drivers.

    Three entries over one {!Engine} + {!Pool} core:

    - {!batch}: read line-delimited requests, evaluate them on a
      domain pool, print one response per line {e in input order}.
      Batch responses carry only deterministic fields ([id], [ok],
      [result]) so the output is bit-identical however many domains
      served it — the property the cram test and CI gate check.
    - {!daemon}: a Unix-domain-socket server, one I/O thread per
      connection, requests fanned across the shared pool, responses
      streamed back in completion order with timing/cache metadata.
    - {!replay}: generate a deterministic workload over a program set,
      run it, and report latency percentiles, cache counters,
      throughput and the determinism digest — the bench harness.

    Exit codes (batch): 0 all requests succeeded, 1 a request was
    malformed ([E0901]), 2 a well-formed request failed. *)

let exit_ok = 0
let exit_usage = 1
let exit_error = 2

(* ------------------------------------------------------------------ *)
(* Wire responses                                                      *)
(* ------------------------------------------------------------------ *)

(* The outcome body is already rendered (and digested) JSON text;
   splice it verbatim so the envelope can't perturb it. *)
let response_line ~(timing : bool) (o : Engine.outcome) : string =
  let b = Buffer.create (String.length o.Engine.body + 64) in
  Buffer.add_string b "{\"id\":";
  Buffer.add_string b (string_of_int o.Engine.id);
  Buffer.add_string b ",\"ok\":";
  Buffer.add_string b (if o.Engine.ok then "true" else "false");
  if timing then begin
    Buffer.add_string b ",\"cached\":";
    Buffer.add_string b (if o.Engine.cached then "true" else "false");
    Buffer.add_string b ",\"ms\":";
    Buffer.add_string b (Jsonx.float_to_string o.Engine.elapsed_ms)
  end;
  Buffer.add_string b ",\"result\":";
  Buffer.add_string b o.Engine.body;
  Buffer.add_char b '}';
  Buffer.contents b

let reject_line (r : Proto.reject) : string =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ( "id",
           match r.Proto.rid with
           | None -> Jsonx.Null
           | Some i -> Jsonx.Int i );
         ("ok", Jsonx.Bool false);
         ( "error",
           Jsonx.Obj
             [
               ("code", Jsonx.Str Proto.code_malformed);
               ("message", Jsonx.Str r.Proto.reason);
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* Batch driver                                                        *)
(* ------------------------------------------------------------------ *)

type batch_result = {
  responses : string list;  (** one line per input line, input order *)
  requests : int;
  succeeded : int;
  failed : int;  (** well-formed requests whose evaluation errored *)
  rejected : int;  (** malformed lines (E0901) *)
  exit_code : int;
}

(** Evaluate the request lines on [domains] workers; responses come
    back in input order and (without [timing]) are bit-identical for
    any domain count. *)
let run_batch ?(timing = false) ?(engine : Engine.t option)
    ~(domains : int) (lines : string list) : batch_result =
  let e = match engine with Some e -> e | None -> Engine.create () in
  let parsed =
    List.mapi
      (fun i line -> Proto.request_of_line ~default_id:(i + 1) line)
      lines
  in
  let jobs =
    List.map
      (fun p () ->
        match p with
        | Error reject -> Error reject
        | Ok req -> Ok (Engine.handle e req))
      parsed
  in
  let outcomes = Pool.map_ordered ~domains jobs in
  let responses =
    List.map
      (function
        | Error reject -> reject_line reject
        | Ok o -> response_line ~timing o)
      outcomes
  in
  let rejected =
    List.length (List.filter Result.is_error outcomes)
  in
  let failed =
    List.length
      (List.filter
         (function Ok o -> not o.Engine.ok | Error _ -> false)
         outcomes)
  in
  let requests = List.length lines in
  {
    responses;
    requests;
    succeeded = requests - rejected - failed;
    failed;
    rejected;
    exit_code =
      (if rejected > 0 then exit_usage
       else if failed > 0 then exit_error
       else exit_ok);
  }

(** Read all lines of [ic] (empty lines skipped). *)
let read_lines (ic : in_channel) : string list =
  let rec go acc =
    match input_line ic with
    | line -> go (if String.trim line = "" then acc else line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Workload generation and replay                                      *)
(* ------------------------------------------------------------------ *)

(** The three option sets of the stress workload: the paper's full
    compiler, the array-privatization ablation, and the unoptimized
    (phpf-faithful) schedule. *)
let workload_option_sets : (string * Phpf_core.Decisions.options) list =
  [
    ("default", Phpf_core.Decisions.default_options);
    ( "no-array-priv",
      {
        Phpf_core.Decisions.default_options with
        Phpf_core.Decisions.privatize_arrays = false;
        partial_privatization = false;
      } );
    ( "no-opt",
      {
        Phpf_core.Decisions.default_options with
        Phpf_core.Decisions.optimize = false;
      } );
  ]

let workload_actions = [ Proto.Compile; Proto.Lint; Proto.Simulate ]

(** Deterministic [n]-request workload cycling programs × option sets
    × actions ([programs] are (name, source-text) pairs). *)
let workload ~(programs : (string * string) list) ~(n : int) :
    Proto.request list =
  if programs = [] then invalid_arg "Serve.workload: no programs";
  let np = List.length programs in
  let no = List.length workload_option_sets in
  let na = List.length workload_actions in
  List.init n (fun i ->
      let _, program = List.nth programs (i mod np) in
      let _, options = List.nth workload_option_sets (i / np mod no) in
      let action = List.nth workload_actions (i / (np * no) mod na) in
      { Proto.id = i + 1; action; program; grid = None; options })

type replay_summary = {
  requests : int;
  domains : int;
  ok : int;
  errors : int;
  p50_ms : float;
  p99_ms : float;
  mean_ms : float;
  wall_s : float;
  throughput_rps : float;
  cache : Phpf_driver.Memo.counters;
  cache_hit_rate : float;
  computed : int;  (** requests that missed the cache and so evaluated *)
  digest : string;
      (** MD5 over the concatenated result bodies in request order —
          equal digests ⇔ identical results, whatever the domain
          count *)
  stats : Phpf_driver.Stats.t;
      (** pass counters summed over the request stream, each cache key
          counted at its first request *)
}

let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(** Run [requests] on a fresh engine (unless one is supplied) over
    [domains] workers and summarize. *)
let replay ?(engine : Engine.t option) ~(domains : int)
    (requests : Proto.request list) : replay_summary =
  let e = match engine with Some e -> e | None -> Engine.create () in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Pool.map_ordered ~domains
      (List.map (fun r () -> Engine.handle e r) requests)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let n = List.length outcomes in
  let lat =
    Array.of_list (List.map (fun o -> o.Engine.elapsed_ms) outcomes)
  in
  Array.sort compare lat;
  let mean_ms =
    if n = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 lat /. float_of_int n
  in
  let errors =
    List.length (List.filter (fun o -> not o.Engine.ok) outcomes)
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            (List.map (fun o -> o.Engine.body) outcomes)))
  in
  (* every outcome carries the counters of the compile behind it, so
     the sum over first occurrences is a function of the requests, not
     of which domain computed what or what the cache evicted *)
  let stats = Phpf_driver.Stats.create () and seen = Hashtbl.create 64 in
  List.iter
    (fun (o : Engine.outcome) ->
      if not (Hashtbl.mem seen o.Engine.key) then begin
        Hashtbl.replace seen o.Engine.key ();
        Option.iter (Engine.add_counters stats) o.Engine.counters
      end)
    outcomes;
  let cache = Engine.cache_counters e in
  {
    requests = n;
    domains;
    ok = n - errors;
    errors;
    p50_ms = percentile lat 0.50;
    p99_ms = percentile lat 0.99;
    mean_ms;
    wall_s;
    throughput_rps = (if wall_s > 0.0 then float_of_int n /. wall_s else 0.0);
    cache;
    cache_hit_rate = Engine.cache_hit_rate e;
    computed = cache.Phpf_driver.Memo.misses;
    digest;
    stats;
  }

let summary_to_json ?(schema = "phpf-serve-replay/1")
    (s : replay_summary) : Jsonx.t =
  Jsonx.Obj
    [
      ("schema", Jsonx.Str schema);
      ("requests", Jsonx.Int s.requests);
      ("domains", Jsonx.Int s.domains);
      ("ok", Jsonx.Int s.ok);
      ("errors", Jsonx.Int s.errors);
      ("p50_ms", Jsonx.Float s.p50_ms);
      ("p99_ms", Jsonx.Float s.p99_ms);
      ("mean_ms", Jsonx.Float s.mean_ms);
      ("wall_s", Jsonx.Float s.wall_s);
      ("throughput_rps", Jsonx.Float s.throughput_rps);
      ( "cache",
        Jsonx.Obj
          [
            ("hits", Jsonx.Int s.cache.Phpf_driver.Memo.hits);
            ("misses", Jsonx.Int s.cache.Phpf_driver.Memo.misses);
            ("entries", Jsonx.Int s.cache.Phpf_driver.Memo.entries);
            ("hit_rate", Jsonx.Float s.cache_hit_rate);
          ] );
      ("computed", Jsonx.Int s.computed);
      ("digest", Jsonx.Str s.digest);
      ( "stats",
        Jsonx.Obj
          (List.map
             (fun (k, v) -> (k, Jsonx.Int v))
             (Phpf_driver.Stats.to_sorted_list s.stats)) );
    ]

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

(* One connection: an I/O thread reads request lines and fans them to
   the shared pool; completed responses stream back in completion
   order under the connection's write lock (the [id] field is how
   clients correlate).  A vanished client just ends the thread. *)
let handle_connection (e : Engine.t) (pool : Pool.t) (fd : Unix.file_descr)
    : unit =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let write_lock = Mutex.create () in
  let write_line (line : string) : bool =
    Mutex.lock write_lock;
    let ok =
      try
        output_string oc line;
        output_char oc '\n';
        flush oc;
        true
      with Sys_error _ | Unix.Unix_error _ -> false
    in
    Mutex.unlock write_lock;
    ok
  in
  (* in-flight counter so the connection closes only after every
     submitted request has answered *)
  let pending = ref 0 in
  let pending_lock = Mutex.create () in
  let pending_zero = Condition.create () in
  let incr_pending () =
    Mutex.lock pending_lock;
    incr pending;
    Mutex.unlock pending_lock
  in
  let decr_pending () =
    Mutex.lock pending_lock;
    decr pending;
    if !pending = 0 then Condition.signal pending_zero;
    Mutex.unlock pending_lock
  in
  let lineno = ref 0 in
  (try
     let rec loop () =
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then begin
         match Proto.request_of_line ~default_id:!lineno line with
         | Error reject -> ignore (write_line (reject_line reject))
         | Ok req ->
             incr_pending ();
             Pool.submit pool (fun () ->
                 let o = Engine.handle e req in
                 ignore (write_line (response_line ~timing:true o));
                 decr_pending ())
       end;
       loop ()
     in
     loop ()
   with End_of_file | Sys_error _ -> ());
  Mutex.lock pending_lock;
  while !pending > 0 do
    Condition.wait pending_zero pending_lock
  done;
  Mutex.unlock pending_lock;
  (try Unix.close fd with Unix.Unix_error _ -> ())

(** Serve requests on a Unix-domain socket until [stop] (checked
    between accepts) returns true — forever by default.  [ready] fires
    once the socket is listening (tests use it to connect). *)
let daemon ?(stop = fun () -> false) ?(ready = fun () -> ())
    ~(socket : string) ~(domains : int) () : unit =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX socket);
  Unix.listen srv 64;
  ready ();
  let e = Engine.create () in
  let pool = Pool.create ~domains in
  let finally () =
    Pool.shutdown pool;
    (try Unix.close srv with Unix.Unix_error _ -> ());
    try Unix.unlink socket with Unix.Unix_error _ -> ()
  in
  (try
     while not (stop ()) do
       (* wake up periodically so [stop] is honoured without a
          connection *)
       match Unix.select [ srv ] [] [] 0.25 with
       | [], _, _ -> ()
       | _ ->
           let fd, _ = Unix.accept srv in
           ignore
             (Thread.create (fun () -> handle_connection e pool fd) ())
     done
   with Unix.Unix_error (Unix.EINTR, _, _) -> ());
  finally ()
