(** Content-addressed result cache for compilation work.

    Keys are digests of everything that can influence the cached value:
    the program source text, a canonical rendering of the option record,
    the processor-grid override and the pass (or product) name — so two
    requests share an entry {e only} when a compile of one could be
    replayed verbatim for the other.  Requests that differ in any
    component hash to different keys, which is the cache-poisoning
    guard exercised by [test_serve].

    The table is sharded; each shard is protected by its own [Mutex],
    so concurrent lookups from a pool of domains contend only when they
    hash to the same shard.  Values must be immutable (or never mutated
    after insertion) — the cache hands the same value to every domain
    that hits. *)

type 'a shard = {
  lock : Mutex.t;
  tbl : (string, 'a) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

type 'a t = { shards : 'a shard array; shard_capacity : int }

let default_shards = 16

let create ?(shards = default_shards) ?(capacity = 4096) () : 'a t =
  let shards = max 1 shards in
  {
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            tbl = Hashtbl.create 64;
            hits = 0;
            misses = 0;
          });
    shard_capacity = max 1 (capacity / shards);
  }

(** Digest-hex key over the request components.  [options] must be a
    canonical signature (e.g. {!Phpf_core.Decisions.options_signature})
    and [grid] a canonical rendering of the override ([""] for none);
    [pass] names the pass or cached product. *)
let key ~source ~options ~grid ~pass : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ "phpf-memo/1"; source; options; grid; pass ]))

let shard_of (t : 'a t) (k : string) : 'a shard =
  (* keys are uniform digest hex; any stable cheap hash spreads them *)
  t.shards.(Hashtbl.hash k mod Array.length t.shards)

let find_opt (t : 'a t) (k : string) : 'a option =
  let s = shard_of t k in
  Mutex.lock s.lock;
  let r = Hashtbl.find_opt s.tbl k in
  (match r with None -> s.misses <- s.misses + 1 | Some _ -> s.hits <- s.hits + 1);
  Mutex.unlock s.lock;
  r

let add (t : 'a t) (k : string) (v : 'a) : bool =
  let s = shard_of t k in
  Mutex.lock s.lock;
  if Hashtbl.length s.tbl >= t.shard_capacity then Hashtbl.reset s.tbl;
  let inserted = not (Hashtbl.mem s.tbl k) in
  if inserted then Hashtbl.add s.tbl k v;
  Mutex.unlock s.lock;
  inserted

(** [find_or_add t k f] returns the cached value for [k], computing it
    with [f] on a miss.  [f] runs {e outside} the shard lock, so a slow
    compute never blocks other domains; two domains racing on the same
    fresh key may both compute, and the first insertion wins — safe
    because cached values are immutable and computed deterministically
    from the key. *)
let find_or_add (t : 'a t) (k : string) (f : unit -> 'a) : 'a =
  match find_opt t k with
  | Some v -> v
  | None ->
      let v = f () in
      ignore (add t k v);
      v

type counters = { hits : int; misses : int; entries : int }

(** Snapshot of the hit/miss counters and live entry count. *)
let counters (t : 'a t) : counters =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let r =
        {
          hits = acc.hits + s.hits;
          misses = acc.misses + s.misses;
          entries = acc.entries + Hashtbl.length s.tbl;
        }
      in
      Mutex.unlock s.lock;
      r)
    { hits = 0; misses = 0; entries = 0 }
    t.shards

(** Hit rate in [0, 1]; 0 when the cache was never consulted. *)
let hit_rate (t : 'a t) : float =
  let c = counters t in
  let total = c.hits + c.misses in
  if total = 0 then 0.0 else float_of_int c.hits /. float_of_int total

(** Drop every entry and reset the counters (fresh-cache benchmarks). *)
let clear (t : 'a t) : unit =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      Hashtbl.reset s.tbl;
      s.hits <- 0;
      s.misses <- 0;
      Mutex.unlock s.lock)
    t.shards
