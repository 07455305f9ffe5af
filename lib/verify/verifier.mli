(** The static verifier: audits a compiled program — the mapping
    decisions plus the communication schedule — without trusting the
    passes that produced them.  Five checkers run as
    {!Phpf_driver.Pass}es through the generic pass-manager, so their
    findings, wall time and counters surface through the same
    [--time-passes] / [--stats] machinery as the compiler's own passes:

    - [verify-mapping] — {!Mapping_check}: §2.1/§2.3/§3 validity of
      every recorded privatization decision against SSA reached-uses;
    - [verify-race] — {!Race_check}: write-write owner coverage of
      array writes;
    - [verify-comm] — {!Comm_check}: decisions → schedule, the
      communication schedule against an independently re-derived
      requirement (the verifier's only re-derivation of communication),
      divergent replication included;
    - [verify-sir] — {!Sir_check}: schedule → lowered SPMD IR, fidelity
      of the recorded program against the decisions it claims to
      implement;
    - [verify-flow] — {!Sir_flow}: lowered IR → deliveries, a dataflow
      audit of the recorded program against the schedule (dead
      transfers, redundant transfers, path-sensitive stale reads,
      degenerate guards).

    Findings accumulate as {!Hpf_lang.Diag.t} values with stable codes
    ([E0601]-[E0613] soundness errors, [W0601]-[W0699] lint warnings);
    a finding never aborts the pipeline. *)

open Hpf_lang
open Phpf_core

(** Verification context threaded through the passes. *)
type vctx = {
  compiled : Compiler.compiled;
  mutable findings : Diag.t list;  (** accumulated, in pass order *)
  mutable flow : Phpf_ir.Sir_dataflow.summary option;
      (** dataflow analysis of the lowered program, computed once for
          [verify-sir]'s witness checks and [verify-flow] *)
}

val create : Compiler.compiled -> vctx

(** The registered verifier passes: [verify-mapping], [verify-race],
    [verify-comm], [verify-sir], [verify-flow]. *)
val passes : (Decisions.options, vctx) Phpf_driver.Pass.t list

val pass_names : string list

(** Run all checkers over a compiled program.  [after] is invoked with
    the pass name and the context after each executed pass (the
    [--dump-after] hook).  Returns the findings (in pass order) with the
    pipeline trace; [Error] only on an internal failure of a checker
    itself, never on findings. *)
val verify :
  ?opts:Decisions.options ->
  ?after:(string -> vctx -> unit) ->
  Compiler.compiled ->
  (Diag.t list * Phpf_driver.Pipeline.trace, Diag.t list) result

(** Error-severity findings (the [E06xx] soundness errors). *)
val errors : Diag.t list -> Diag.t list

val warnings : Diag.t list -> Diag.t list
val has_errors : Diag.t list -> bool

(** One-line [lint: N error(s), M warning(s)] summary. *)
val pp_summary : Format.formatter -> Diag.t list -> unit
