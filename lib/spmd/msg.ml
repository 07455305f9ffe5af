(** Explicit message layer for the SPMD interpreter.

    {!Spmd_interp} used to copy values directly between processor shadow
    memories; every such copy is now a {!packet} travelling through a
    per-(source, destination) FIFO queue.  Packets carry a per-pair
    sequence number and a payload checksum, which is what makes lost,
    duplicated, reordered and corrupted messages {e detectable} by the
    recovery supervisor ({!Recover}) instead of silently diverging the
    shadow memories.

    The layer itself is purely mechanical: it allocates sequence
    numbers, stamps checksums and moves packets between queues.  Fault
    injection ({!Fault}) perturbs what gets enqueued; detection and
    retransmission live in {!Recover}. *)

(** One remote write — or, for a vectorized communication, a loop's
    worth of them: the unit of communication between processors.  A
    payload addresses its target by slot or cell of the run's
    {!Memory.layout}; the name travels along for printing and feeds the
    checksum. *)
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

(** Elements carried by a payload (what [beta] is paid for). *)
let payload_elems = function
  | Scalar _ | Elem _ -> 1
  | Block { values; _ } -> Array.length values

(** Fixed per-packet overhead (sequence number, checksum, routing) used
    by the byte accounting: aggregation amortizes exactly this plus the
    startup latency. *)
let header_bytes = 32

(** On-the-wire size of a payload under [elem_bytes]-sized elements
    (header included). *)
let payload_bytes ~(elem_bytes : int) (p : payload) : int =
  header_bytes + (payload_elems p * elem_bytes)

let pp_payload ppf = function
  | Scalar { var; value; _ } -> Fmt.pf ppf "%s=%a" var Value.pp value
  | Elem { base; index; value; _ } ->
      Fmt.pf ppf "%s(%a)=%a" base
        Fmt.(array ~sep:(any ",") int)
        index Value.pp value
  | Block { base; values; _ } ->
      Fmt.pf ppf "%s[block of %d]" base (Array.length values)

(* Mix a value's integer image into [acc]: a type tag, then the value.
   Reals go through their IEEE bit pattern (high word, low word) so any
   perturbation — however small — changes the checksum. *)
let mix_value (acc : int) (v : Value.t) : int =
  match v with
  | Value.I n -> Init.mix_step (Init.mix_step acc 1) n
  | Value.R f ->
      let b = Int64.bits_of_float f in
      let acc = Init.mix_step acc 2 in
      let acc =
        Init.mix_step acc (Int64.to_int (Int64.shift_right_logical b 32))
      in
      Init.mix_step acc (Int64.to_int b)
  | Value.B b -> Init.mix_step (Init.mix_step acc 3) (if b then 1 else 0)

(* Mix [len] subscripts starting at [idx.(pos)]. *)
let mix_ints (acc : int) (idx : int array) ~(pos : int) ~(len : int) : int =
  let acc = ref acc in
  for d = pos to pos + len - 1 do
    acc := Init.mix_step !acc idx.(d)
  done;
  !acc

(** Deterministic checksum of a payload, streamed through
    {!Init.mix_step} from seed [0x5EED]: the name's hash, then for a
    scalar its value, for an element its subscripts and value, for a
    block its element count and, per element, its rank, subscripts and
    value.  Every element of a block feeds the image, so damaging any
    one of them changes the checksum. *)
let checksum (p : payload) : int =
  match p with
  | Scalar { var; value; _ } ->
      mix_value (Init.mix_step 0x5EED (Init.hash_name var)) value
  | Elem { base; index; value; _ } ->
      let acc = Init.mix_step 0x5EED (Init.hash_name base) in
      mix_value (mix_ints acc index ~pos:0 ~len:(Array.length index)) value
  | Block { base; rank; indices; values; _ } ->
      let acc = Init.mix_step 0x5EED (Init.hash_name base) in
      let acc = ref (Init.mix_step acc (Array.length values)) in
      for k = 0 to Array.length values - 1 do
        let a = Init.mix_step !acc rank in
        let a = mix_ints a indices ~pos:(k * rank) ~len:rank in
        acc := mix_value a values.(k)
      done;
      !acc

type packet = {
  seq : int;  (** per-(src,dst) sequence number, starting at 0 *)
  src : int;
  dst : int;
  payload : payload;
  check : int;  (** {!checksum} of the payload at send time *)
}

let pp_packet ppf (p : packet) =
  Fmt.pf ppf "#%d %d->%d %a" p.seq p.src p.dst pp_payload p.payload

(** Per-(src,dst) channel state, materialized on first use.  An idle
    pair costs nothing: at P=1024 the dense representation would eagerly
    allocate over a million queues while a stencil touches a handful of
    neighbours per processor. *)
type pair_state = {
  q : packet Queue.t;
  mutable pair_next_seq : int;  (** next sequence number to allocate *)
  mutable pair_expected : int;  (** next number the receiver accepts *)
}

type t = {
  nprocs : int;
  pairs : (int, pair_state) Hashtbl.t;  (** keyed [src * nprocs + dst] *)
  mutable sent : int;  (** packets enqueued (duplicates included) *)
  mutable delivered : int;  (** packets accepted by a receiver *)
  mutable sent_blocks : int;  (** of [sent], how many carried a [Block] *)
  mutable sent_elems : int;  (** elements across all enqueued packets *)
  mutable sent_bytes : int;  (** wire bytes across all enqueued packets *)
}

(** Bytes per element on the wire (REAL*8, matching
    {!Hpf_comm.Cost_model.sp2}). *)
let elem_bytes = 8

let create ~(nprocs : int) : t =
  {
    nprocs;
    pairs = Hashtbl.create 64;
    sent = 0;
    delivered = 0;
    sent_blocks = 0;
    sent_elems = 0;
    sent_bytes = 0;
  }

(** Traffic accounting of a finished (or running) network. *)
type stats = {
  packets : int;  (** packets enqueued (retransmits and dups included) *)
  blocks : int;  (** of [packets], how many were aggregated blocks *)
  elems : int;  (** elements carried across all packets *)
  bytes : int;  (** wire bytes (headers included) *)
}

let stats (t : t) : stats =
  {
    packets = t.sent;
    blocks = t.sent_blocks;
    elems = t.sent_elems;
    bytes = t.sent_bytes;
  }

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "%d packets (%d blocks, %d singles), %d elems, %d bytes"
    s.packets s.blocks (s.packets - s.blocks) s.elems s.bytes

let pair_key (t : t) ~(src : int) ~(dst : int) = (src * t.nprocs) + dst

(* Materialize the channel state of a pair (senders and accepters only:
   pure reads of an idle pair must stay allocation-free). *)
let materialize (t : t) ~src ~dst : pair_state =
  let k = pair_key t ~src ~dst in
  match Hashtbl.find t.pairs k with
  | ps -> ps
  | exception Not_found ->
      let ps = { q = Queue.create (); pair_next_seq = 0; pair_expected = 0 } in
      Hashtbl.replace t.pairs k ps;
      ps

(** Allocate the next send sequence number of the pair.  A retransmission
    of the same logical message must {e not} re-allocate: it reuses the
    packet's original number. *)
let next_seq (t : t) ~src ~dst : int =
  let ps = materialize t ~src ~dst in
  let s = ps.pair_next_seq in
  ps.pair_next_seq <- s + 1;
  s

(** The sequence number the receiver of the pair accepts next. *)
let expected (t : t) ~src ~dst : int =
  match Hashtbl.find t.pairs (pair_key t ~src ~dst) with
  | ps -> ps.pair_expected
  | exception Not_found -> 0

let advance_expected (t : t) ~src ~dst =
  let ps = materialize t ~src ~dst in
  ps.pair_expected <- ps.pair_expected + 1;
  t.delivered <- t.delivered + 1

(** Build a packet for [payload] with a fresh sequence number and its
    checksum stamped. *)
let make (t : t) ~src ~dst (payload : payload) : packet =
  { seq = next_seq t ~src ~dst; src; dst; payload; check = checksum payload }

let enqueue (t : t) (p : packet) =
  t.sent <- t.sent + 1;
  (match p.payload with Block _ -> t.sent_blocks <- t.sent_blocks + 1 | _ -> ());
  t.sent_elems <- t.sent_elems + payload_elems p.payload;
  t.sent_bytes <- t.sent_bytes + payload_bytes ~elem_bytes p.payload;
  Queue.push p (materialize t ~src:p.src ~dst:p.dst).q

let dequeue (t : t) ~src ~dst : packet option =
  match Hashtbl.find t.pairs (pair_key t ~src ~dst) with
  | ps -> Queue.take_opt ps.q
  | exception Not_found -> None
