(** The serve request engine: one {!Proto.request} in, one
    {e deterministic} result payload out.

    The [body] of an {!outcome} is a pure function of (program text,
    options, grid, action) — no wall-clock, no process identity, no
    cache state.  Timing and cache provenance live in the outcome's
    metadata, which the wire layer keeps outside the digested payload.
    Bodies are therefore bit-identical between a sequential run and an
    8-domain run, and safe to share from the content-addressed cache. *)

open Phpf_driver

type t

val create : ?cache_capacity:int -> unit -> t

type outcome = {
  id : int;
  action : Proto.action;
  ok : bool;  (** [false] = the payload is an error body with diags *)
  body : string;  (** deterministic JSON object text *)
  cached : bool;
  elapsed_ms : float;
}

(** Evaluate one request: cache lookup, else parse → compile → (verify
    | simulate), cache insert.  Never raises — every failure mode is an
    error body with structured diagnostics. *)
val handle : t -> Proto.request -> outcome

(** The content-addressed cache key of a request
    (source⊕options⊕grid⊕action). *)
val cache_key : Proto.request -> string

val cache_counters : t -> Memo.counters
val cache_hit_rate : t -> float

(** Merged pass-counter snapshot over the compiles whose results
    entered the cache ({!Phpf_driver.Stats.merge} aggregation): a
    domain that loses a race to compute the same fresh key adds to
    {!computed_count} only, so while nothing is evicted the snapshot
    does not depend on the domain count.  A key recompiled after its
    eviction enters the cache, and the snapshot, again. *)
val stats_snapshot : t -> Stats.t

(** Cache misses that actually ran the compiler. *)
val computed_count : t -> int
