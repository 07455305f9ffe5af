(** The dataflow core of the flow-sensitive IR audits, shared between
    the [verify-flow] checker ({!Phpf_verify.Sir_flow}) and the
    {!Sir_opt} optimizer.

    Runs two fixpoints over one {!Sir_cfg} graph through the generic
    {!Flow} engine — forward MUST availability of delivery facts and
    backward MAY liveness of per-processor copies — and classifies the
    transfer ops whose removal the fixpoints certify as
    observation-preserving:

    - {b dead} ([W0606]): backward liveness shows the payload is
      overwritten or never read on any processor before the validity
      scope ends;
    - {b redundant} ([W0607]): forward MUST availability shows the data
      already valid at every destination from a dominating delivery,
      checked with the op itself excluded from the state — so every
      classified op is {e individually} deletable.

    The verifier renders these classes as warnings; the optimizer turns
    them into deletions: [dte] re-runs both fixpoints on a {!prepared}
    context after each rewrite, [rte] replays its deletions against one
    analysis ({!redundant_deletions}), so mutually-covering transfers
    are never both removed. *)

open Hpf_lang

(** {2 Syntactic coverage}

    Predicates are pure data (their {!Ast.expr} leaves are evaluated
    against the lockstep reference memory), so structural equality is
    the exactness baseline and coverage adds only the [C_all] /
    degenerate-grid widenings.  A union on the {e have} side may be
    satisfied member-wise; a union on the {e need} side is compared
    structurally (the empty evaluated union falls back to all
    processors, so member-wise reasoning is unsound there). *)

val coord_covers : have:Sir.coord -> need:Sir.coord -> bool
val place_covers : have:Sir.place -> need:Sir.place -> bool
val pred_is_all : Sir.pred -> bool
val pred_covers : have:Sir.pred -> need:Sir.pred -> bool
val dests_covers : have:Sir.dests -> need:Sir.dests -> bool

(** The names an owner line's or a destination set's subscripts read. *)
val place_vars : Sir.place -> string list

val dests_vars : Sir.dests -> string list

(** {2 Delivery facts (the forward MUST domain)} *)

(** The moved datum of a delivery, as a syntactic key (subscripts are
    reference-evaluated, so structural equality means element equality
    as long as no mentioned variable was redefined — which the kill
    rules enforce). *)
type dkey =
  | K_scalar of string
  | K_whole of string  (** every element of an array *)
  | K_elem of string * Ast.expr list
  | K_section of string * Ast.expr list * Sir.loop_desc list
      (** the elements [base(subs)] as each walked index runs over its
          loop: a block that walks these loops in full whenever it
          ships (an affine section, not a list of elements) *)

val key_base : dkey -> string

(** A whole-array key covers every element of its base.  A section
    covers an element by membership: each walked index stands bare in
    exactly one subscript, the element's subscript there is
    [lo + k*step] within [[lo, hi]] (a constant away from [lo], with a
    literal step), and every other subscript is structurally equal.
    Element keys require structural subscript equality, and a section
    is covered only by itself or its whole array. *)
val key_covers : have:dkey -> need:dkey -> bool

(** Provenance of a fact: the identical initial memories, a transfer op
    (by uid), or a guarded write at a statement. *)
type source = Sir.fact_source = F_init | F_op of int | F_write of Ast.stmt_id

type fact = { src : source; key : dkey; dests : Sir.dests }

(** The one delivery fact a transfer op contributes at a statement
    whose enclosing loop indices are [mirror] ([None] for the
    pricing-only [Reduce_xfer]).  A block keeps its symbolic subscripts:
    a crossed index in [mirror] names the current instance's element,
    and the crossed indices the block walks in full whenever it ships
    (those not in [mirror]: a {!Sir_opt}-merged pair's synthetic index)
    make the key a {!K_section}. *)
val fact_of_op : mirror:string list -> Sir.comm_op -> fact option

(** Constant difference [e2 - e1] when both share one symbolic part
    ([e + c] forms). *)
val const_delta : Ast.expr -> Ast.expr -> int option

(** Base (array or scalar) whose copy a transfer op moves. *)
val op_base : Sir.comm_op -> string option

val dests_of_xfer : Sir.xfer -> Sir.dests option

(** Facts from the identical initialization of every per-processor
    memory: each declared variable is valid everywhere until written. *)
val initial_facts : Sir.program -> fact list

(** Arrays the final validation reads (a [V_skip] array is dead at
    exit). *)
val validated_arrays : Sir.program -> string list

(** The unique instance node of a statement (where its ops fire). *)
val instance_node : Sir_cfg.t -> Ast.stmt_id -> int option

(** {2 The lattices}

    Both domains are bitsets over ids interned once per program: every
    fact a node can generate (initial, mirror, combine, transfer — one
    per op — loop-index and guarded-assign writes) and every name a
    node can make live.  Ids follow [compare] order, so a
    state listed by ascending id is exactly the sorted fact or name
    list of the specification.  Each node's transfer is precomposed
    into one [(keep, gen)] word mask per direction, so a worklist visit
    costs one pass over the words. *)

(** The interning table of one program: built eagerly by {!prepare} and
    never mutated afterwards. *)
type universe

module Avail : sig
  type t
  (** [Top] (not yet reached: unreachable nodes keep it) or a set of
      facts *)

  val equal : t -> t -> bool
  val join : t -> t -> t  (** MUST intersection; [Top] is identity *)

  (** The facts in [compare] order; [None] for [Top]. *)
  val facts : universe -> t -> fact list option
end

module Live : sig
  type t
  (** base names whose per-processor copies may be read downstream: by
      an assignment's right-hand side, an [IF] condition (at its
      [Branch] node), a reduction combine, a transfer's source or the
      final validation.  Loop bounds, left-hand subscripts and owner
      coordinates read the reference memory. *)

  val equal : t -> t -> bool
  val join : t -> t -> t  (** MAY union *)

  (** The names in [compare] order. *)
  val names : universe -> t -> string list
end

(** {2 The classification} *)

(** One node's precomposed transfers and transfer-op facts. *)
type plan

type summary = {
  cfg : Sir_cfg.t;
  universe : universe;
  plans : plan array;  (** per node, as analyzed *)
  avail : Avail.t Flow.result;
  live : Live.t Flow.result;
  dead : (Ast.stmt_id * Sir.comm_op) list;  (** [W0606] class *)
  redundant : (Ast.stmt_id * Sir.comm_op) list;  (** [W0607] class *)
}

(** Ops whose removal the fixpoints certify as observation-preserving
    (the delete-and-diff oracle's removable class); the two classes are
    kept disjoint (dead wins). *)
val removable : summary -> Sir.comm_op list

(** Is [key] valid at [need] in the state the statement at node [i]
    reads: the node's in-state replayed through its mirror, reduction
    and communication ops? *)
val covered_at : summary -> int -> key:dkey -> need:Sir.dests -> bool

(** For the fact op [uid] delivers at node [i], the source of a fact in
    that state that makes it valid (the lowest id; [[]] when the node is
    unreachable or nothing covers it) — what an [rte] witness names
    when the analysis is re-run after every deletion, as the tests'
    reference loop does; {!redundant_deletions} names the same covers
    from one analysis. *)
val covers_of : summary -> int -> int -> source list

(** Can a processor read its copy of [base] once the transfers at node
    [i] have fired: in the node's own execution, in a transfer still
    there, or downstream?  A [dte] witness for a transfer of [base] at
    [i] holds exactly when not. *)
val read_after : summary -> int -> string -> bool

(** {2 Redundant deletions}

    Deleting a transfer only clears its own facts from the MUST
    fixpoint (facts carry their source op, and only writes kill them),
    so [rte] decides every deletion against one analysis. *)

(** The transfers the one-at-a-time [rte] loop deletes, in its order,
    each with the covers its [W_redundant] witness names: [redundant]
    is walked in schedule order, and a candidate is deleted when the
    fact it delivers still has a cover in its node's pre-state whose
    source is not an already deleted op (the witness names the
    lowest-id such cover) and it has not become dead — a
    deletion removes a read of its source copy, so a candidate that
    nothing later at its own node reads is re-checked against liveness
    without the deleted ops.  Edits nothing. *)
val redundant_deletions : summary -> (Sir.comm_op * source list) list

(** {2 Prepared analyses}

    [dte]'s deletion loop re-runs both fixpoints after every single
    deletion (a deletion changes liveness) but builds the CFG, the
    interning table and the node plans once: deleting an op can only
    remove facts and names, so the table of the original program stays
    a superset, and only the touched statement's plan changes. *)

type prepared

(** Build the CFG, intern the program's facts and names, and plan every
    node. *)
val prepare : Sir.program -> prepared

(** Re-plan the nodes of a statement after ops were deleted from its
    [comms] (the only rewrite a prepared context supports). *)
val replan : prepared -> Ast.stmt_id -> unit

(** Run both fixpoints over the program as it stands and classify. *)
val analyze : prepared -> summary

(** [analyze (prepare p)]. *)
val summarize : Sir.program -> summary

(** {2 Rendering} *)

val pp_fact : Format.formatter -> fact -> unit
val pp_avail : universe -> Format.formatter -> Avail.t -> unit
val pp_live : universe -> Format.formatter -> Live.t -> unit
