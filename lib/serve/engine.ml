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
    source⊕options⊕grid⊕action.  Each cached result keeps the pass
    counters of the compile that produced it (the serve counterpart of
    [phpfc compile --stats]), so every outcome, hit or miss, carries
    them, and a replay sums them over the request stream. *)

open Hpf_lang
open Phpf_core
open Phpf_driver

(* A compile's pass counters: the names, sorted, and their values; the
   names are the passes' string constants, shared by every compile. *)
type counters = { names : string array; values : int array }

(* A cached result: the [ok] flag, the rendered body and, when the
   compiler ran to completion, its counters. *)
type result = { r_ok : bool; r_body : string; r_counters : counters option }

type t = { cache : result Memo.t }

let create ?(cache_capacity = 4096) () =
  { cache = Memo.create ~capacity:cache_capacity () }

type outcome = {
  id : int;
  action : Proto.action;
  key : string;
  ok : bool;
  body : string;  (** deterministic JSON object text *)
  counters : counters option;
  cached : bool;
  elapsed_ms : float;
}

let cache_counters (e : t) = Memo.counters e.cache
let cache_hit_rate (e : t) = Memo.hit_rate e.cache

let counters_of (s : Stats.t) : counters =
  let kvs = Stats.to_sorted_list s in
  {
    names = Array.of_list (List.map fst kvs);
    values = Array.of_list (List.map snd kvs);
  }

let add_counters (into : Stats.t) (c : counters) : unit =
  Array.iteri (fun k name -> Stats.add into name c.values.(k)) c.names

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
  | exn ->
      error_body r.Proto.action
        (match Hpf_spmd.Spmd_interp.runtime_diags exn with
        | Some ds -> ds
        | None ->
            [
              Diag.errorf ~code:"E0902" "internal error evaluating request: %s"
                (Printexc.to_string exn);
            ])

let cache_key (r : Proto.request) : string =
  Memo.key ~source:r.Proto.program
    ~options:(Decisions.options_signature r.Proto.options)
    ~grid:(Proto.grid_signature r.Proto.grid)
    ~pass:(Proto.action_to_string r.Proto.action)

let handle (e : t) (r : Proto.request) : outcome =
  let t0 = Unix.gettimeofday () in
  let key = cache_key r in
  let finish ~cached (v : result) =
    {
      id = r.Proto.id;
      action = r.Proto.action;
      key;
      ok = v.r_ok;
      body = v.r_body;
      counters = v.r_counters;
      cached;
      elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
    }
  in
  match Memo.find_opt e.cache key with
  | Some cached -> finish ~cached:true cached
  | None ->
      let ran = ref None in
      let r_ok, r_body = compute ran r in
      let v = { r_ok; r_body; r_counters = Option.map counters_of !ran } in
      (* first insertion wins: a racing domain that also computed this
         key inserts an identical (deterministic) result *)
      ignore (Memo.add e.cache key v);
      finish ~cached:false v
