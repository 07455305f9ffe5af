(** Flow-sensitive audits of the lowered SPMD IR (the [verify-flow]
    pass).

    The dataflow core — coverage lattice, delivery facts, the two
    fixpoints and the dead/redundant transfer classification — lives in
    {!Phpf_ir.Sir_dataflow}, shared with the {!Phpf_ir.Sir_opt}
    optimizer so warnings and deletions can never disagree.  This
    module re-exports that core and adds the audits that need the full
    compile record:

    - [E0612] {b stale read}: a communication of the compiled schedule
      is not satisfied at its consumer by any reaching transfer or
      local write of the recorded program on some path — the
      flow-sensitive counterpart of the schedule-structural [E0603],
      which [verify-comm] checks against the decisions;
    - [W0606] {b dead transfer} and [W0607] {b redundant transfer}:
      the {!Phpf_ir.Sir_dataflow.summary} classes rendered as findings;
    - [W0608] {b guard audit}: a materialized predicate is statically
      empty or has a union member implied by a sibling.

    The two warning classes are exactly the static halves of the
    delete-and-diff oracle ([test_flow.ml]): every op in {!removable}
    can be deleted from the recorded program without changing the
    executor's validation verdict, and deleting any other transfer op
    makes {!check} report [E0612]. *)

open Hpf_lang
open Phpf_core
module Sir = Phpf_ir.Sir
module Sir_cfg = Phpf_ir.Sir_cfg
module Flow = Phpf_ir.Flow
module Comm = Hpf_comm.Comm

(** The shared dataflow core: {!coord_covers} … {!dests_covers},
    {!dkey}, {!fact}, [Avail], [Live], {!summarize} and friends. *)
include module type of struct
  include Phpf_ir.Sir_dataflow
end

(** {2 Requirements and results} *)

type req = {
  cm : Comm.t;  (** the scheduled descriptor the consumer needs *)
  key : dkey;
  need : Sir.dests;
  node : int;  (** instance node of the consumer statement *)
}

(** What one descriptor requires at its consumer's instance node in
    [cfg]: its datum at the consumer's recorded computes guard (an
    assignment's or a control statement's; every processor for a
    broadcast or a loop head).  [None] for a [Reduce] combine or a
    statement with no instance node. *)
val req_of : Sir_cfg.t -> Comm.t -> req option

(** The requirements the [E0612] audit checks: {!req_of} of every
    descriptor of the compiled schedule, in schedule order. *)
val requirements : Compiler.compiled -> Sir_cfg.t -> req list

(** The [W0608] guard audit alone (statically empty or subsumed
    predicates). *)
val check_guards : Sir.program -> Diag.t list

type analysis = {
  cfg : Sir_cfg.t;
  universe : universe;  (** renders the two lattices *)
  avail : Avail.t Flow.result;
  live : Live.t Flow.result;
  dead : Sir.comm_op list;  (** ops flagged [W0606] *)
  redundant : Sir.comm_op list;  (** ops flagged [W0607] *)
  stale : req list;  (** unsatisfied requirements ([E0612]) *)
  findings : Diag.t list;
}

(** Ops whose removal the analysis certifies as observation-preserving
    (the oracle's removable class: [dead] plus [redundant]). *)
val removable : analysis -> Sir.comm_op list

(** Run all four analyses; [flow] computes the shared core's analysis
    of the lowered program (default {!summarize}).  [None] when the
    compile carries no lowered program. *)
val analyze :
  ?flow:(Sir.program -> summary) -> Compiler.compiled -> analysis option

(** The findings alone — what the [verify-flow] verifier pass records. *)
val check : Compiler.compiled -> Diag.t list

(** {2 Rendering ([--dump-after verify-flow])} *)

(** Per-block availability in/out and liveness in/out sets. *)
val pp_analysis : Format.formatter -> analysis -> unit

(** Rendered {!pp_analysis}; [None] without a lowered program. *)
val dump : Compiler.compiled -> string option
