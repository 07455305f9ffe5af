(** The serve request engine: one {!Proto.request} in, one
    {e deterministic} result payload out.

    Determinism contract: the [body] of an {!outcome} is a pure
    function of (program text, options, grid, action).  It contains no
    wall-clock times, no process identity, no cache state — those live
    in the outcome's metadata fields, which the wire layer keeps
    {e outside} the digested payload.  That is what lets the stress
    tests demand bit-identical bodies from a sequential run and an
    8-domain run, and what makes bodies safe to share from the
    content-addressed cache.

    The engine owns a {!Phpf_driver.Memo} cache keyed
    source⊕options⊕grid⊕action, and an aggregate {!Phpf_driver.Stats}
    counter set merged from the pipeline trace of each compile whose
    result entered the cache (the serve counterpart of
    [phpfc compile --stats]). *)

open Hpf_lang
open Phpf_core
open Phpf_driver

type t = {
  cache : (bool * string) Memo.t;
      (** payload cache: [ok] flag and rendered body *)
  agg_lock : Mutex.t;
  agg : Stats.t;  (** merged pass counters of cache-inserting computes *)
  mutable computed : int;  (** cache misses that ran the compiler *)
}

let create ?(cache_capacity = 4096) () =
  {
    cache = Memo.create ~capacity:cache_capacity ();
    agg_lock = Mutex.create ();
    agg = Stats.create ();
    computed = 0;
  }

type outcome = {
  id : int;
  action : Proto.action;
  ok : bool;
  body : string;  (** deterministic JSON object text *)
  cached : bool;
  elapsed_ms : float;
}

let cache_counters (e : t) = Memo.counters e.cache
let cache_hit_rate (e : t) = Memo.hit_rate e.cache

(** Fresh merged snapshot of the aggregate pass counters. *)
let stats_snapshot (e : t) : Stats.t =
  Mutex.lock e.agg_lock;
  let s = Stats.merge (Stats.create ()) e.agg in
  Mutex.unlock e.agg_lock;
  s

let computed_count (e : t) =
  Mutex.lock e.agg_lock;
  let n = e.computed in
  Mutex.unlock e.agg_lock;
  n

(* ------------------------------------------------------------------ *)
(* Payload builders                                                    *)
(* ------------------------------------------------------------------ *)

let error_body (action : Proto.action) (ds : Diag.t list) : bool * string =
  ( false,
    Jsonx.to_string
      (Jsonx.Obj
         [
           ("action", Jsonx.Str (Proto.action_to_string action));
           ("ok", Jsonx.Bool false);
           ("diags", Jsonx.List (List.map Proto.diag_to_json ds));
         ]) )

let sir_digest_json (sir : Phpf_ir.Sir.program option) : Jsonx.t =
  match sir with
  | None -> Jsonx.Null
  | Some sir ->
      Jsonx.Str
        (Digest.to_hex (Digest.string (Phpf_ir.Sir_pp.to_string sir)))

(* The shared compile-summary fields: every action's payload carries
   them, so any divergence between domains shows up in the digest no
   matter which action the client asked for. *)
let summary_fields (c : Compiler.compiled) : (string * Jsonx.t) list =
  let d = c.Compiler.decisions in
  let grid = d.Decisions.env.Hpf_mapping.Layout.grid in
  [
    ("program", Jsonx.Str c.Compiler.prog.Ast.pname);
    ( "grid",
      Jsonx.List
        (Array.to_list
           (Array.map
              (fun e -> Jsonx.Int e)
              grid.Hpf_mapping.Grid.extents)) );
    ("scalars", Jsonx.Int (Decisions.scalar_count d));
    ("arrays", Jsonx.Int (Decisions.array_count d));
    ("ctrl", Jsonx.Int (Decisions.ctrl_count d));
    ("ivs", Jsonx.Int (List.length c.Compiler.ivs));
    ("comms", Jsonx.Int (List.length c.Compiler.comms));
    ( "vectorized",
      Jsonx.Int
        (List.length (List.filter Hpf_comm.Comm.vectorized c.Compiler.comms))
    );
    ( "schedule_digest",
      Jsonx.Str (Hpf_comm.Comm.schedule_digest c.Compiler.comms) );
    ("sir_digest", sir_digest_json c.Compiler.sir);
  ]

let compile_body (c : Compiler.compiled) (trace : Pipeline.trace) :
    bool * string =
  let stats =
    List.map
      (fun (k, v) -> (k, Jsonx.Int v))
      (Stats.to_sorted_list (Pipeline.total_stats trace))
  in
  ( true,
    Jsonx.to_string
      (Jsonx.Obj
         ([ ("action", Jsonx.Str "compile"); ("ok", Jsonx.Bool true) ]
         @ summary_fields c
         @ [
             ( "est_comm_cost",
               Jsonx.Float (Compiler.estimated_comm_cost c) );
             ("stats", Jsonx.Obj stats);
           ])) )

let lint_body (c : Compiler.compiled) (findings : Diag.t list) :
    bool * string =
  let count sev =
    List.length
      (List.filter (fun d -> d.Diag.severity = sev) findings)
  in
  ( true,
    Jsonx.to_string
      (Jsonx.Obj
         ([ ("action", Jsonx.Str "lint"); ("ok", Jsonx.Bool true) ]
         @ summary_fields c
         @ [
             ( "findings",
               Jsonx.List (List.map Proto.diag_to_json findings) );
             ("errors", Jsonx.Int (count Diag.Error));
             ("warnings", Jsonx.Int (count Diag.Warning));
           ])) )

let simulate_body (c : Compiler.compiled)
    (r : Hpf_spmd.Trace_sim.result) : bool * string =
  let open Hpf_spmd.Trace_sim in
  ( true,
    Jsonx.to_string
      (Jsonx.Obj
         ([ ("action", Jsonx.Str "simulate"); ("ok", Jsonx.Bool true) ]
         @ summary_fields c
         @ [
             ("nprocs", Jsonx.Int r.nprocs);
             ("time", Jsonx.Float r.time);
             ("compute_max", Jsonx.Float r.compute_max);
             ("comm_time", Jsonx.Float r.comm_time);
             ("comm_messages", Jsonx.Int r.comm_messages);
             ("comm_elems", Jsonx.Int r.comm_elems);
             ("packets", Jsonx.Int r.packets);
             ("bytes", Jsonx.Int r.bytes);
             ("stmt_instances", Jsonx.Int r.stmt_instances);
             ("mem_elems_max", Jsonx.Int r.mem_elems_max);
           ])) )

(* ------------------------------------------------------------------ *)
(* Request evaluation                                                  *)
(* ------------------------------------------------------------------ *)

(* Run the compiler for a request; every failure mode lands as a
   structured-diagnostic error payload, never as an exception escaping
   the pool worker.  When the compiler ran, [ran] receives the
   pipeline's merged counters. *)
let compute (ran : Stats.t option ref) (r : Proto.request) : bool * string =
  try
    match Parser.parse_string_result ~file:"<request>" r.program with
    | Error ds -> error_body r.Proto.action ds
    | Ok prog -> (
        match
          Compiler.compile_traced ?grid_override:r.Proto.grid
            ~options:r.Proto.options prog
        with
        | Error ds -> error_body r.Proto.action ds
        | Ok (c, trace) -> (
            ran := Some (Pipeline.total_stats trace);
            match r.Proto.action with
            | Proto.Compile -> compile_body c trace
            | Proto.Lint -> (
                match
                  Phpf_verify.Verifier.verify ~opts:r.Proto.options c
                with
                | Error ds -> error_body r.Proto.action ds
                | Ok (findings, _vtrace) -> lint_body c findings)
            | Proto.Simulate ->
                let result, _mem =
                  Hpf_spmd.Trace_sim.run
                    ~init:(Hpf_spmd.Init.init c.Compiler.prog)
                    c
                in
                simulate_body c result))
  with
  | Diag.Fatal ds -> error_body r.Proto.action ds
  | Hpf_spmd.Memory.Runtime_error { loc; sid = _; msg } ->
      error_body r.Proto.action [ Diag.error ?loc ~code:"E0701" msg ]
  | exn ->
      error_body r.Proto.action
        [
          Diag.errorf ~code:"E0902" "internal error evaluating request: %s"
            (Printexc.to_string exn);
        ]

let cache_key (r : Proto.request) : string =
  Memo.key ~source:r.Proto.program
    ~options:(Decisions.options_signature r.Proto.options)
    ~grid:(Proto.grid_signature r.Proto.grid)
    ~pass:(Proto.action_to_string r.Proto.action)

let handle (e : t) (r : Proto.request) : outcome =
  let t0 = Unix.gettimeofday () in
  let key = cache_key r in
  let finish ~cached (ok, body) =
    {
      id = r.Proto.id;
      action = r.Proto.action;
      ok;
      body;
      cached;
      elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
    }
  in
  match Memo.find_opt e.cache key with
  | Some cached -> finish ~cached:true cached
  | None ->
      let ran = ref None in
      let v = compute ran r in
      (* first insertion wins: a racing domain that also computed this
         key inserts an identical (deterministic) payload.  Only the
         winner's counters enter the aggregate, so it does not depend
         on the domain count; [computed] still counts every run. *)
      let inserted = Memo.add e.cache key v in
      Option.iter
        (fun s ->
          Mutex.lock e.agg_lock;
          e.computed <- e.computed + 1;
          if inserted then Stats.merge_into ~into:e.agg s;
          Mutex.unlock e.agg_lock)
        !ran;
      finish ~cached:false v
