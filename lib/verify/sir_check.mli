(** Lowered-IR fidelity audit: replay the optimizer's witnesses on a
    fresh lowering of the same decisions and schedule as a plain edit
    script, diff the recorded {!Phpf_ir.Sir.program} against the
    result, and check each deletion witness against a dataflow analysis
    of the recorded program.

    Findings: [E0610] recorded IR misses a required transfer op (deleted
    without a witness, or with one that does not hold or does not
    apply); [E0611] computes predicates, storage decisions, reduction
    plans or validation recipes disagree with the decisions; [W0605]
    recorded IR carries an op the decisions do not require.  A compiled
    record without a lowered program produces no findings. *)

open Hpf_lang
open Phpf_core

(** [flow] computes the {!Phpf_ir.Sir_dataflow} analysis of the recorded
    program (default {!Phpf_ir.Sir_dataflow.summarize}); it is called
    only when the record carries a deletion witness. *)
val check :
  ?flow:(Phpf_ir.Sir.program -> Phpf_ir.Sir_dataflow.summary) ->
  Compiler.compiled ->
  Diag.t list
