(** Explicit message layer for the SPMD interpreter: per-(src, dst) FIFO
    queues of checksummed, sequence-numbered packets.  {!Fault} perturbs
    what gets enqueued; {!Recover} detects the damage (sequence gaps,
    stale numbers, checksum mismatches) and retransmits. *)

(** One remote write — or, for a vectorized communication, a loop's
    worth of them: the unit of communication between processors.  A
    payload addresses its target by slot ([Scalar], a scalar-based
    [Block]) or cell ([Elem], an array [Block]) of the run's
    {!Memory.layout}; the name travels along for printing and feeds the
    checksum.  A payload's arrays belong to it: senders build them
    fresh and nobody mutates them after. *)
type payload =
  | Scalar of { var : string; slot : int; value : Value.t }
  | Elem of { base : string; cell : int; index : int array; value : Value.t }
  | Block of {
      base : string;
      addr : int;  (** [base]'s cell, or its slot when [rank = 0] *)
      rank : int;
          (** subscripts per element; 0 writes the scalar [base] *)
      indices : int array;
          (** the index region, [rank] subscripts per element, element
              after element in write order *)
      values : Value.t array;  (** one value per element *)
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

(** Deterministic checksum of a payload, streamed through
    {!Init.mix_step} (no list is built): from seed [0x5EED], the name's
    hash, then for a scalar its value, for an element its subscripts
    and value, for a block its element count and, per element, its
    rank, subscripts and value.  A value mixes a type tag (1 int, 2
    real, 3 bool) and its integer image (a real's IEEE bits, high word
    then low word).  Every element of a [Block] feeds the image. *)
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
