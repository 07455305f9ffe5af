(** Deterministic, seed-derived fault schedules for the SPMD message
    runtime: drop / duplicate / reorder / corrupt / delay packets, stall
    / crash processors.  Same mixer discipline as {!Init} — a
    (spec, seed) pair names one exact, reproducible fault campaign. *)

type kind =
  | Drop  (** packet vanishes in flight *)
  | Duplicate  (** packet is delivered twice *)
  | Reorder  (** packet is held back and released after a later one *)
  | Corrupt  (** payload bits flip; the checksum no longer matches *)
  | Delay  (** packet arrives late (possibly past the receiver timeout) *)
  | Stall  (** a processor stops responding for a while *)
  | Crash  (** a processor dies and loses its shadow memory *)

val all_kinds : kind list
val message_kinds : kind list
val processor_kinds : kind list
val kind_to_string : kind -> string
val pp_kind : Format.formatter -> kind -> unit
val kind_of_string : string -> kind option

(** Per-kind injection probabilities in [0, 1]. *)
type spec = (kind * float) list

(** A one-shot injection: fire the (processor) kind at exactly the given
    heartbeat window, regardless of rates. *)
type oneshot = kind * int

(** Parse [item (, item)*] with [item ::= KIND(:RATE)? | PKIND@EVENT];
    [all] sets every kind, default rate 0.05, [PKIND@EVENT] pins a
    one-shot [stall]/[crash] to heartbeat window [EVENT].  Rates outside
    [0, 1], duplicate explicit kinds, duplicate [all] and duplicate
    one-shots are rejected; [all] followed by explicit overrides stays
    legal. *)
val parse_spec : string -> (spec * oneshot list, string) result

type t

val make : ?seed:int -> ?oneshots:oneshot list -> spec -> t

(** The inert schedule: injects nothing, costs nothing. *)
val none : t

(** Does the schedule have any positive rate or pinned one-shot?
    Inactive schedules let the runtime skip checkpointing and WAL
    recording entirely. *)
val active : t -> bool

(** Decision for the next message-send event (consumes one event; at
    most one kind fires, first match in {!message_kinds} order). *)
val on_message : t -> kind option

(** Decision for the next processor heartbeat window: optionally stall
    or crash one deterministically-picked processor. *)
val on_processor : t -> nprocs:int -> (int * kind) option

(** Deterministic scale factor in [1, n] for a fault's magnitude. *)
val magnitude : t -> event:int -> n:int -> int

(** Deterministically flip bits of a payload's value (the checksum image
    always changes).  A block gets a fresh value array with one element
    flipped, picked from its first value; the original is untouched. *)
val corrupt_payload : Msg.payload -> Msg.payload

(** Per-kind injection counts so far (zero-count kinds omitted). *)
val injected : t -> (kind * int) list

val total_injected : t -> int
