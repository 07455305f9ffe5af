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

(** The pass counters of one compile ({!Phpf_driver.Pipeline.total_stats}),
    kept with its cached result in two arrays: the sorted counter names
    and their values. *)
type counters = private { names : string array; values : int array }

type outcome = {
  id : int;
  action : Proto.action;
  key : string;  (** the request's {!cache_key} *)
  ok : bool;  (** [false] = the payload is an error body with diags *)
  body : string;  (** deterministic JSON object text *)
  counters : counters option;
      (** the counters of the compile that produced [body], whether this
          request ran it or hit its cached result; [None] when the
          compiler did not run to completion *)
  cached : bool;
  elapsed_ms : float;
}

(** Add a compile's counters into a counter set. *)
val add_counters : Stats.t -> counters -> unit

(** Evaluate one request: cache lookup, else parse → compile → (verify
    | simulate), cache insert.  Never raises — every failure mode is an
    error body with structured diagnostics. *)
val handle : t -> Proto.request -> outcome

(** The content-addressed cache key of a request
    (source⊕options⊕grid⊕action). *)
val cache_key : Proto.request -> string

(** Cache hits and misses; every miss evaluates its request. *)
val cache_counters : t -> Memo.counters

val cache_hit_rate : t -> float
