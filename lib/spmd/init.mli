(** Deterministic seeding of program memory for simulations and
    validation runs: every array element gets a value derived from a hash
    of its name and index vector, so stale or misplaced elements are
    distinguishable.  No global randomness — runs are reproducible. *)

open Hpf_lang

(** [mix seed xs] folds [xs] into [seed] with a deterministic avalanche
    step, yielding a value in [0, 2^30).  The one source of pseudo-random
    bits in the runtime (seeding, fault schedules, checksums) — no
    [Random] anywhere, so runs are bit-reproducible. *)
val mix : int -> int list -> int

(** One step of {!mix}: [mix seed xs] is [List.fold_left mix_step seed
    xs], so a caller can stream a sequence it never builds as a list. *)
val mix_step : int -> int -> int

(** Deterministic hash of a name, built from {!mix}. *)
val hash_name : string -> int

(** Fill every declared array of [prog] in [m] with deterministic values
    (reals in (0, 2); integers in [1, 8]; booleans from the low bit). *)
val seed : ?seed:int -> Ast.program -> Memory.t -> unit

(** [init prog] is [seed prog] packaged as an [init] argument for
    {!Seq_interp.run} / {!Spmd_interp.run} / {!Trace_sim.run}. *)
val init : ?seed:int -> Ast.program -> Memory.t -> unit
