(** Recovery-plan fidelity audit ([E0613]).

    A {!Phpf_ir.Sir.recovery_plan} is a promise the runtime supervisor
    executes blindly at failure time, so the verifier re-derives its
    safety conditions from the lowered IR instead of trusting the
    planner:

    - every plan entry names a declared datum, and every re-execution
      entry names an existing producing region with at least one
      producer statement;
    - a re-execution region's {e instance node} must dominate the CFG
      exit ({!Phpf_ir.Sir_cfg}; immediate dominators from
      {!Hpf_analysis.Dom}'s Cooper-Harvey-Kennedy core, the one the SSA
      builder runs): replay is only sound when every path
      to the failure point is guaranteed to have entered the region once
      the entry is armed — a control-dependent region (under an [If])
      does not dominate, and the planner must have escalated it to
      {!Phpf_ir.Sir.R_checkpoint};
    - the [checkpoints_needed] flag must not understate the entries: a
      plan carrying a checkpoint entry while advertising itself as
      checkpoint-free would let the runtime run the localized regime
      with no snapshot to escalate to. *)

open Hpf_lang
open Phpf_core
module Sir = Phpf_ir.Sir
module Sir_cfg = Phpf_ir.Sir_cfg
module Dom = Hpf_analysis.Dom

let check (c : Compiler.compiled) : Diag.t list =
  match c.Compiler.sir with
  | None -> []
  | Some sir -> (
      match sir.Sir.recovery with
      | None -> []
      | Some plan ->
          let src = sir.Sir.source in
          let cfg = Sir_cfg.build sir in
          let idom =
            lazy
              (fst
                 (Dom.immediate ~n:(Sir_cfg.n_nodes cfg) ~entry:cfg.Sir_cfg.entry
                    ~preds:(Sir_cfg.preds cfg)
                    ~rpo:(Sir_cfg.reverse_postorder cfg)))
          in
          let sids = Hashtbl.create 64 in
          Ast.iter_program (fun s -> Hashtbl.replace sids s.Ast.sid ()) src;
          let findings = ref [] in
          let err fmt =
            Fmt.kstr
              (fun m ->
                findings :=
                  Diag.errorf ~code:Codes.e_plan_dominance "%s" m
                  :: !findings)
              fmt
          in
          List.iter
            (fun (e : Sir.rentry) ->
              if Ast.find_decl src e.Sir.datum = None then
                err "recovery plan entry for %S names an undeclared datum"
                  e.Sir.datum;
              match e.Sir.source with
              | Sir.R_replica _ | Sir.R_checkpoint -> ()
              | Sir.R_reexec { producers; region; _ } -> (
                  if producers = [] then
                    err
                      "recovery plan re-execution entry for %S has no \
                       producer statements"
                      e.Sir.datum;
                  List.iter
                    (fun sid ->
                      if not (Hashtbl.mem sids sid) then
                        err
                          "recovery plan entry for %S names nonexistent \
                           producer statement s%d"
                          e.Sir.datum sid)
                    producers;
                  if not (Hashtbl.mem sids region) then
                    err
                      "recovery plan entry for %S names nonexistent \
                       producing region s%d"
                      e.Sir.datum region
                  else
                    match Phpf_ir.Sir_dataflow.instance_node cfg region with
                    | None ->
                        err
                          "recovery plan entry for %S: region s%d has no \
                           instance node in the control-flow graph"
                          e.Sir.datum region
                    | Some n ->
                        if
                          not
                            (Dom.idom_dominates (Lazy.force idom) n
                               cfg.Sir_cfg.exit_)
                        then
                          err
                            "recovery plan entry for %S: re-execution \
                             region s%d does not dominate the program \
                             exit — replay from it is unsound on paths \
                             that bypass the region (must escalate to \
                             checkpoint)"
                            e.Sir.datum region))
            plan.Sir.entries;
          (if not plan.Sir.checkpoints_needed then
             let esc =
               List.filter
                 (fun (e : Sir.rentry) ->
                   e.Sir.source = Sir.R_checkpoint)
                 plan.Sir.entries
             in
             match esc with
             | [] -> ()
             | e :: _ ->
                 err
                   "recovery plan advertises itself checkpoint-free but \
                    entry for %S escalates to checkpoint restore (%d \
                    escalating entries)"
                   e.Sir.datum (List.length esc));
          List.rev !findings)
