(** Content-addressed result cache for compilation work, shared by the
    serve daemon's domain pool.

    Keys digest the program source, a canonical option signature, the
    grid override and the pass name, so requests share an entry only
    when one compile could be replayed verbatim for the other.  The
    table is sharded with one [Mutex] per shard; cached values must be
    immutable, because every hit hands out the same value. *)

type 'a t

(** [create ?shards ?capacity ()] — [capacity] bounds the total entry
    count (approximately; enforced per shard by epoch flush). *)
val create : ?shards:int -> ?capacity:int -> unit -> 'a t

(** Digest-hex key over the request components.  [options] must be a
    canonical signature (e.g. {!Phpf_core.Decisions.options_signature})
    and [grid] a canonical rendering of the override ([""] for none);
    [pass] names the pass or cached product. *)
val key : source:string -> options:string -> grid:string -> pass:string -> string

(** Lookup; counts a hit or a miss. *)
val find_opt : 'a t -> string -> 'a option

(** Insert if absent (first insertion wins); [true] iff this call
    inserted. *)
val add : 'a t -> string -> 'a -> bool

(** [find_or_add t k f] returns the cached value for [k], computing it
    with [f] on a miss.  [f] runs outside the shard lock; two domains
    racing on the same fresh key may both compute, and the first
    insertion wins — safe because cached values are immutable and
    deterministic in the key. *)
val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a

type counters = { hits : int; misses : int; entries : int }

(** Snapshot of the hit/miss counters and live entry count. *)
val counters : 'a t -> counters

(** Hit rate in [0, 1]; 0 when the cache was never consulted. *)
val hit_rate : 'a t -> float

(** Drop every entry and reset the counters (fresh-cache benchmarks). *)
val clear : 'a t -> unit
