(** Explicit message layer for the SPMD interpreter: per-(src, dst) FIFO
    queues of checksummed, sequence-numbered packets.  {!Fault} perturbs
    what gets enqueued; {!Recover} detects the damage (sequence gaps,
    stale numbers, checksum mismatches) and retransmits. *)

(** One remote write — or, for a vectorized communication, a loop's
    worth of them: the unit of communication between processors. *)
type payload =
  | Scalar of { var : string; value : Value.t }
  | Elem of { base : string; index : int list; value : Value.t }
  | Block of {
      base : string;
      indices : int list list;
          (** index region, one vector per element, in write order; an
              empty vector writes the scalar [base] *)
      values : Value.t list;  (** value vector, same length as [indices] *)
    }
      (** aggregated message of a vectorized communication: one sequence
          number, one checksum, one startup latency for the whole
          region.  Fault injection and recovery treat it as a unit. *)

(** Elements carried by a payload. *)
val payload_elems : payload -> int

(** Fixed per-packet overhead in bytes (sequence number, checksum,
    routing) — what aggregation amortizes besides startup latency. *)
val header_bytes : int

(** On-the-wire size of a payload (header included). *)
val payload_bytes : elem_bytes:int -> payload -> int

val pp_payload : Format.formatter -> payload -> unit

(** Deterministic checksum of a payload ({!Init.mix} discipline); every
    element of a [Block] feeds the image. *)
val checksum : payload -> int

type packet = {
  seq : int;  (** per-(src,dst) sequence number, starting at 0 *)
  src : int;
  dst : int;
  payload : payload;
  check : int;  (** {!checksum} of the payload at send time *)
}

val pp_packet : Format.formatter -> packet -> unit

type pair_state
(** Per-(src,dst) channel state (FIFO queue, sequence counters),
    materialized on first use so an idle pair costs nothing even at
    P=1024. *)

type t = {
  nprocs : int;
  pairs : (int, pair_state) Hashtbl.t;  (** keyed [src * nprocs + dst] *)
  mutable sent : int;  (** packets enqueued (duplicates included) *)
  mutable delivered : int;  (** packets accepted by a receiver *)
  mutable sent_blocks : int;  (** of [sent], how many carried a [Block] *)
  mutable sent_elems : int;  (** elements across all enqueued packets *)
  mutable sent_bytes : int;  (** wire bytes across all enqueued packets *)
}

(** Bytes per element on the wire (REAL*8). *)
val elem_bytes : int

val create : nprocs:int -> t

(** Traffic accounting of a finished (or running) network. *)
type stats = {
  packets : int;  (** packets enqueued (retransmits and dups included) *)
  blocks : int;  (** of [packets], how many were aggregated blocks *)
  elems : int;  (** elements carried across all packets *)
  bytes : int;  (** wire bytes (headers included) *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** Build a packet with a fresh per-pair sequence number and its checksum
    stamped.  Retransmissions reuse the original packet instead. *)
val make : t -> src:int -> dst:int -> payload -> packet

val enqueue : t -> packet -> unit
val dequeue : t -> src:int -> dst:int -> packet option

(** The sequence number the receiver of the pair accepts next. *)
val expected : t -> src:int -> dst:int -> int

val advance_expected : t -> src:int -> dst:int -> unit
val pending : t -> src:int -> dst:int -> int
