(** IR-to-IR rewrites over the lowered SPMD program — the optimizer
    pipeline between [lower-spmd] and [recovery-plan].

    Each pass mutates the program in place and returns a rewrite count
    (deleted ops, fused pairs, dropped prefix indices, dropped combine
    steps).  {!apply} additionally records the pass name in the
    program's [opt_applied] field, the replay recipe
    {!Phpf_verify.Sir_check} feeds back through {!replay} to re-audit
    an optimized lowering against a fresh one.

    Soundness obligations (enforced by the post-optimization
    [verify-flow] / [Sir_check] / [plan_check] audits and the property
    suite in [test_opt]):

    - [dte]/[rte] delete one op at a time and re-run the
      {!Sir_dataflow} fixpoints (on a context prepared once per pass)
      before the next deletion, so mutually-covering transfers are
      never both removed;
    - [merge] preserves ship timing (the merged block's prefix is the
      statement's full mirror) and its region expands back to exactly
      the fused element keys under {!Sir_dataflow.facts_of_op};
    - [hoist] drops a prefix index only when nothing the block
      evaluates at ship time — payload addresses, owner line,
      destination set, crossed bounds, or the base's stored values —
      can change across that index's iterations;
    - [combine] drops a reduction combine only when a forward MAY-dirty
      fixpoint proves the accumulator clean on every path (the lazy
      executor already no-ops such combines, so this is a pure
      schedule/pricing win). *)

open Hpf_lang

(** Pass names in canonical application order:
    [dte; rte; merge; hoist; combine]. *)
val pass_names : string list

(** One-line description of a pass ([None] for unknown names). *)
val descr_of : string -> string option

(** Run one pass by name and record it in [opt_applied]; returns the
    rewrite count.  @raise Invalid_argument on an unknown name. *)
val apply : string -> Sir.program -> int

(** Run every pass in {!pass_names} order, returning
    [(pass, rewrite count)] per pass. *)
val run : Sir.program -> (string * int) list

(** Re-apply a recorded [opt_applied] recipe verbatim (used by
    {!Phpf_verify.Sir_check} on the fresh re-lowering). *)
val replay : string list -> Sir.program -> unit

(** {2 Individual passes}

    Exposed for tests; these do {e not} record into [opt_applied]. *)

val dte : Sir.program -> int
val rte : Sir.program -> int
val merge : Sir.program -> int
val hoist : Sir.program -> int
val combine : Sir.program -> int

(**/**)

(* test hooks *)
val written_in : Ast.stmt list -> string list
val block_free_vars :
  data:Sir.xdata ->
  dests:Sir.dests ->
  crossed:Sir.loop_desc list ->
  string list
