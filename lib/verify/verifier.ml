(** The static verifier's pass list and entry point. *)

open Hpf_lang
open Phpf_core
module Pass = Phpf_driver.Pass
module Pipeline = Phpf_driver.Pipeline
module Stats = Phpf_driver.Stats

type vctx = {
  compiled : Compiler.compiled;
  mutable findings : Diag.t list;
  mutable flow : Phpf_ir.Sir_dataflow.summary option;
}

let create compiled = { compiled; findings = []; flow = None }

let flow_of (v : vctx) (sir : Phpf_ir.Sir.program) :
    Phpf_ir.Sir_dataflow.summary =
  match v.flow with
  | Some s -> s
  | None ->
      let s = Phpf_ir.Sir_dataflow.summarize sir in
      v.flow <- Some s;
      s

(* A checker must survive arbitrarily corrupt artifacts: when the audit
   itself cannot re-derive anything from the recorded decisions (e.g. a
   grid dimension that crashes the ownership computation), that is a
   structural soundness finding, not a verifier crash. *)
let audit (name : string) (f : unit -> Diag.t list) : Diag.t list =
  try f ()
  with
  | Diag.Fatal ds -> ds
  | e ->
      [
        Diag.errorf ~code:Codes.e_structural
          "%s could not audit the compiled artifact: the recorded decisions \
           crash re-derivation (%s)"
          name (Printexc.to_string e);
      ]

let record (v : vctx) (st : Stats.t) (found : Diag.t list) =
  v.findings <- v.findings @ found;
  Stats.set st "findings.errors"
    (List.length (List.filter Diag.is_error found));
  Stats.set st "findings.warnings"
    (List.length (List.filter (fun d -> not (Diag.is_error d)) found))

let passes : (Decisions.options, vctx) Pass.t list =
  [
    Pass.make "verify-mapping"
      ~descr:"mapping-validity audit of every privatization decision"
      (fun v st ->
        Stats.set st "mappings.scalar"
          (List.length (Decisions.scalar_mappings v.compiled.Compiler.decisions));
        Stats.set st "mappings.array"
          (List.length (Decisions.array_mappings v.compiled.Compiler.decisions));
        record v st
          (audit "verify-mapping" (fun () -> Mapping_check.check v.compiled));
        v);
    Pass.make "verify-race"
      ~descr:"write-write race detection (owner coverage of array writes)"
      (fun v st ->
        record v st
          (audit "verify-race" (fun () -> Race_check.check v.compiled));
        v);
    Pass.make "verify-comm"
      ~descr:"completeness and placement of the communication schedule"
      (fun v st ->
        record v st
          (audit "verify-comm" (fun () ->
               let diff = Vutil.comm_diff v.compiled in
               Stats.set st "comm.matched" diff.Vutil.matched;
               Stats.set st "comm.missing" (List.length diff.Vutil.missing);
               Stats.set st "comm.misplaced"
                 (List.length diff.Vutil.misplaced);
               Stats.set st "comm.redundant"
                 (List.length diff.Vutil.redundant);
               Comm_check.check v.compiled diff));
        v);
    Pass.make "verify-sir"
      ~descr:"fidelity of the lowered SPMD IR against the decisions"
      (fun v st ->
        Stats.set st "sir.recorded"
          (match v.compiled.Compiler.sir with Some _ -> 1 | None -> 0);
        Stats.set st "plan.entries"
          (match v.compiled.Compiler.sir with
          | Some { Phpf_ir.Sir.recovery = Some p; _ } ->
              List.length p.Phpf_ir.Sir.entries
          | _ -> 0);
        record v st
          (audit "verify-sir" (fun () ->
               Sir_check.check ~flow:(flow_of v) v.compiled
               @ Plan_check.check v.compiled));
        v);
    Pass.make "verify-flow"
      ~descr:"dataflow audit of the lowered IR (dead/redundant/stale)"
      (fun v st ->
        record v st
          (audit "verify-flow" (fun () ->
               match Sir_flow.analyze ~flow:(flow_of v) v.compiled with
               | None -> []
               | Some a ->
                   Stats.set st "flow.blocks"
                     (Phpf_ir.Sir_cfg.n_nodes a.Sir_flow.cfg);
                   Stats.set st "flow.iterations"
                     (a.Sir_flow.avail.Phpf_ir.Flow.iterations
                     + a.Sir_flow.live.Phpf_ir.Flow.iterations);
                   Stats.set st "flow.dead" (List.length a.Sir_flow.dead);
                   Stats.set st "flow.redundant"
                     (List.length a.Sir_flow.redundant);
                   Stats.set st "flow.stale" (List.length a.Sir_flow.stale);
                   a.Sir_flow.findings));
        v);
  ]

let pass_names = Pipeline.names passes

let verify ?(opts = Decisions.default_options) ?after
    (c : Compiler.compiled) : (Diag.t list * Pipeline.trace, Diag.t list) result
    =
  let v = create c in
  match Pipeline.run ~opts ?after passes v with
  | Ok (v, trace) -> Ok (v.findings, trace)
  | Error ds -> Error ds

let errors ds = List.filter Diag.is_error ds
let warnings ds = List.filter (fun d -> not (Diag.is_error d)) ds

let has_errors ds = errors ds <> []

let pp_summary ppf ds =
  Fmt.pf ppf "lint: %d error(s), %d warning(s)" (List.length (errors ds))
    (List.length (warnings ds))
