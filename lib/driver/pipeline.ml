(** The pass-manager: folds a registered pass list over a compilation
    context, recording per-pass wall time and statistics.

    Contexts are immutable accumulators: each pass receives the context
    produced by its predecessor and returns the context for its
    successor, so a pipeline run touches no state outside the values it
    threads — many runs can proceed concurrently on separate domains.

    The runner is the single place where {!Hpf_lang.Diag.Fatal} is
    caught: any pass that raises it aborts the pipeline and its
    accumulated diagnostics become the [Error] payload — callers never
    see phase-specific exceptions. *)

open Hpf_lang

(** One executed pass in the trace. *)
type entry = {
  pass : string;
  time_s : float;  (** wall time of the pass's [run] *)
  stats : (string * int) list;  (** counters the pass recorded, sorted *)
}

(** Record of one pipeline execution — a per-run value, merged across
    runs with {!Stats.merge} over {!total_stats}. *)
type trace = {
  entries : entry list;  (** executed passes, in execution order *)
  skipped : string list;  (** passes dropped by their enabled-predicate *)
  total_s : float;  (** wall time of the whole pipeline *)
}

let names passes = List.map Pass.name passes

let find passes name =
  List.find_opt (fun p -> String.equal (Pass.name p) name) passes

(** Names of the executed passes, in order. *)
let executed (tr : trace) = List.map (fun e -> e.pass) tr.entries

(** Stats of one executed pass, if it ran. *)
let stats_of (tr : trace) name =
  List.find_map
    (fun e -> if String.equal e.pass name then Some e.stats else None)
    tr.entries

(** All counters of the trace merged into one set. *)
let total_stats (tr : trace) : Stats.t =
  Stats.merge_all (List.map (fun e -> Stats.of_list e.stats) tr.entries)

(** Fold the passes over [ctx] in order, skipping those whose
    enabled-predicate rejects [opts].  [after] is invoked with the pass
    name and the pass's result context after each executed pass (the
    [--dump-after] hook).  Returns the final context and the execution
    trace, or the diagnostics of the first failing pass. *)
let run ~opts ?(after = fun _ _ -> ()) passes ctx :
    ('ctx * trace, Diag.t list) result =
  let t0 = Unix.gettimeofday () in
  let entries = ref [] in
  let skipped = ref [] in
  try
    let final =
      List.fold_left
        (fun ctx (p : _ Pass.t) ->
          if p.Pass.enabled opts then begin
            let st = Stats.create () in
            let s = Unix.gettimeofday () in
            let ctx' = p.Pass.run ctx st in
            let e = Unix.gettimeofday () in
            entries :=
              {
                pass = p.Pass.name;
                time_s = e -. s;
                stats = Stats.to_sorted_list st;
              }
              :: !entries;
            after p.Pass.name ctx';
            ctx'
          end
          else begin
            skipped := p.Pass.name :: !skipped;
            ctx
          end)
        ctx passes
    in
    Ok
      ( final,
        {
          entries = List.rev !entries;
          skipped = List.rev !skipped;
          total_s = Unix.gettimeofday () -. t0;
        } )
  with Diag.Fatal ds -> Error ds

(* ------------------------------------------------------------------ *)
(* Renderers                                                           *)
(* ------------------------------------------------------------------ *)

(** Per-pass timing table (the [--time-passes] view). *)
let pp_timing ppf (tr : trace) =
  let total = List.fold_left (fun a e -> a +. e.time_s) 0.0 tr.entries in
  Fmt.pf ppf "%-16s %10s %7s@." "pass" "time (ms)" "%";
  List.iter
    (fun e ->
      Fmt.pf ppf "%-16s %10.3f %6.1f%%@." e.pass (1000.0 *. e.time_s)
        (if total > 0.0 then 100.0 *. e.time_s /. total else 0.0))
    tr.entries;
  Fmt.pf ppf "%-16s %10.3f@." "total" (1000.0 *. total)

(** Per-pass statistics counters (the [--stats] view); passes that
    recorded nothing are omitted. *)
let pp_stats ppf (tr : trace) =
  List.iter
    (fun e ->
      match e.stats with
      | [] -> ()
      | stats ->
          Fmt.pf ppf "%s:@." e.pass;
          List.iter (fun (k, v) -> Fmt.pf ppf "  %-24s %8d@." k v) stats)
    tr.entries
