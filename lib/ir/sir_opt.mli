(** IR-to-IR rewrites over the lowered SPMD program — the optimizer
    pipeline between [lower-spmd] and [recovery-plan].

    Each pass decides its rewrites, records each as a {!Sir.witness}
    and performs it through {!edit}: a pass mutates the program in place
    and returns its witnesses.  {!apply} additionally appends them to
    the program's [opt_applied] field.  {!Phpf_verify.Sir_check} replays
    that list on a fresh lowering as a plain edit script (no dataflow)
    and checks each deletion witness against one dataflow analysis of
    the recorded program, so a faulty rewrite is reported instead of
    being re-derived identically.

    Soundness obligations (enforced by the post-optimization
    [verify-flow] / [Sir_check] / [plan_check] audits and the property
    suite in [test_opt]):

    - [dte] deletes one op at a time and re-runs the {!Sir_dataflow}
      fixpoints (on a context prepared once per pass) before the next
      deletion, since a deletion changes liveness; [rte] decides every
      deletion against one analysis ({!Sir_dataflow.redundant_deletions}),
      since a deletion only clears its own facts: a candidate goes only
      while the fact it delivers keeps a cover that was not deleted, so
      mutually-covering transfers are never both removed;
    - [merge] preserves ship timing (the merged block's prefix is the
      statement's full mirror); its synthetic index is walked in full
      whenever the block ships, so {!Sir_dataflow.fact_of_op} makes it
      one section, which covers each fused element by membership;
    - [hoist] drops a prefix index only when nothing the block
      evaluates at ship time — payload addresses, owner line,
      destination set, crossed bounds, or the base's stored values —
      can change across the iterations of that index's innermost loop
      enclosing the block's statement;
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

(** Run one pass by name and append its witnesses to [opt_applied];
    returns the rewrite count.  [nest] is the compile's loop nest of the
    program's source ([hoist] reads it).  @raise Invalid_argument on an
    unknown name. *)
val apply : nest:Nest.t -> string -> Sir.program -> int

(** Run every pass in {!pass_names} order, returning
    [(pass, rewrite count)] per pass. *)
val run : nest:Nest.t -> Sir.program -> (string * int) list

(** The rewrite count of a witness list: deleted ops, fused pairs,
    dropped prefix indices, dropped combine steps and reduce ops. *)
val rewrites : Sir.witness list -> int

(** {2 The edit script} *)

(** A program with its ops indexed by uid (uids never move between
    statements, so one index serves a whole script). *)
type editor

val editor : Sir.program -> editor

(** Perform one witness in place.  Returns the edited statement's ops
    as they were before the edit, or [None] — and edits nothing — when
    the program lacks an op, statement or step the witness names. *)
val edit : editor -> Sir.witness -> Sir.stmt_ops option

(** {2 Individual passes}

    Exposed for tests; these do {e not} record into [opt_applied]. *)

val dte : Sir.program -> Sir.witness list
val rte : Sir.program -> Sir.witness list
val merge : Sir.program -> Sir.witness list

(** [nest] is the compile's loop nest of the program's source: whether a
    name is written inside a loop is read from it
    ({!Hpf_lang.Nest.written_in}). *)
val hoist : nest:Nest.t -> Sir.program -> Sir.witness list
val combine : Sir.program -> Sir.witness list

(**/**)

(* test hook *)
val block_free_vars :
  data:Sir.xdata ->
  dests:Sir.dests ->
  crossed:Sir.loop_desc list ->
  string list
