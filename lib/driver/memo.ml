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
    that hits.

    Each shard holds at most [capacity / shards] entries in a fixed ring
    of slots and evicts by CLOCK (second chance): a hit sets the entry's
    reference bit; an insert into a full shard moves the hand forward,
    clearing the bits it passes, and replaces the first entry whose bit
    was already clear.  A key that keeps being hit survives every sweep,
    so the popular keys stay cached while one-off keys cycle through. *)

(* One cached value and its CLOCK reference bit (clear on insertion). *)
type 'a entry = { key : string; value : 'a; mutable referenced : bool }

type 'a shard = {
  lock : Mutex.t;
  slot_of : (string, int) Hashtbl.t;  (** key -> its slot in [ring] *)
  mutable ring : 'a entry array;
      (** [[||]] until the first insert, then [shard_capacity] slots.
          Slots [0 .. length slot_of - 1] are live: they fill in order,
          and once all are live an eviction replaces one in place. *)
  mutable hand : int;  (** the next slot an eviction examines *)
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
            slot_of = Hashtbl.create 64;
            ring = [||];
            hand = 0;
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
  let r =
    match Hashtbl.find_opt s.slot_of k with
    | None ->
        s.misses <- s.misses + 1;
        None
    | Some slot ->
        let e = s.ring.(slot) in
        e.referenced <- true;
        s.hits <- s.hits + 1;
        Some e.value
  in
  Mutex.unlock s.lock;
  r

(* The slot a new entry takes: the next free one while the ring fills,
   then the first entry the hand reaches with its bit clear, clearing
   the set bits it passes.  Call with the shard locked. *)
let claim_slot (s : 'a shard) (capacity : int) : int =
  let live = Hashtbl.length s.slot_of in
  if live < capacity then live
  else begin
    while s.ring.(s.hand).referenced do
      s.ring.(s.hand).referenced <- false;
      s.hand <- (s.hand + 1) mod capacity
    done;
    let slot = s.hand in
    Hashtbl.remove s.slot_of s.ring.(slot).key;
    s.hand <- (slot + 1) mod capacity;
    slot
  end

let add (t : 'a t) (k : string) (v : 'a) : bool =
  let s = shard_of t k in
  Mutex.lock s.lock;
  let inserted = not (Hashtbl.mem s.slot_of k) in
  if inserted then begin
    let e = { key = k; value = v; referenced = false } in
    (* the first insert sizes the ring; its unused slots alias [e] *)
    if Array.length s.ring = 0 then s.ring <- Array.make t.shard_capacity e;
    let slot = claim_slot s t.shard_capacity in
    s.ring.(slot) <- e;
    Hashtbl.replace s.slot_of k slot
  end;
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
          entries = acc.entries + Hashtbl.length s.slot_of;
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
      Hashtbl.reset s.slot_of;
      s.ring <- [||];
      s.hand <- 0;
      s.hits <- 0;
      s.misses <- 0;
      Mutex.unlock s.lock)
    t.shards
