(** Communication descriptors produced by {!Comm_analysis}, and their
    cost under a machine model. *)

open Hpf_analysis

type kind =
  | Shift of int
      (** producer and consumer positions differ by a constant:
          nearest-neighbour exchange after vectorization *)
  | Broadcast  (** needed by all processors along some grid dims *)
  | Reduce  (** combining collective of a recognized reduction *)
  | Point_to_point  (** value moves to a single (varying) owner *)
  | Gather  (** irregular: the expensive fallback *)

val pp_kind : Format.formatter -> kind -> unit

type t = {
  data : Aref.t;  (** the communicated reference *)
  kind : kind;
  stmt_level : int;  (** nesting level of the statement *)
  placement_level : int;
      (** loop level the communication sits just inside; 0 = hoisted
          outside all loops; [< stmt_level] means vectorized *)
  elems_per_instance : int;  (** elements moved per execution *)
  instances : int;  (** executions (static estimate) *)
  group : int option;
      (** collective participant count when narrower than the machine *)
  agg_vars : string list;
      (** loop indices over which the message aggregates elements (for a
          [Shift], the driving index is excluded: only the boundary
          moves) *)
  scale : int;  (** per-instance multiplier (|δ| boundary planes) *)
  boundary_fraction : float;
      (** for a non-vectorized [Shift]: fraction of iterations whose
          producer and consumer differ (|δ|/block size; 1 under CYCLIC) *)
}

(** Was the communication hoisted past at least one loop? *)
val vectorized : t -> bool

(** Was it left inside its statement's innermost loop (one message per
    iteration, the paper's expensive case)?  Never for a statement
    outside every loop. *)
val in_innermost_loop : t -> bool

(** All descriptors of the schedule moving exactly this reference
    ({!Hpf_analysis.Aref.equal} on [data]). *)
val for_ref : t list -> Aref.t -> t list

val total_elems : t -> int
val pp : Format.formatter -> t -> unit

(** Canonical one-line rendering: every field, fixed order,
    locale-independent ([%h] for floats).  Equal signatures iff
    structurally equal descriptors. *)
val signature : t -> string

(** Order-sensitive content digest (MD5 hex) of a schedule — equal
    digests iff structurally equal schedules.  The serve determinism
    checks and the bench replay harness compare these across runs. *)
val schedule_digest : t list -> string

(** Estimated cost of one descriptor. *)
val cost : Cost_model.t -> nprocs:int -> t -> float

val total_cost : Cost_model.t -> nprocs:int -> t list -> float
