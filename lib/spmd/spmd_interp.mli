(** Per-processor SPMD execution of the lowered IR ({!Phpf_ir.Sir}) —
    the correctness cross-check for the compilation.

    Ownership chains, computation-partitioning guards, communication
    destinations, aggregation plans and reduction combine lines were all
    resolved at lowering time ({!Phpf_core.Lower_spmd}); this module only
    evaluates the subscript expressions embedded in IR coordinates
    against the lockstep reference memory and moves the values.  It is
    the only SPMD executor: every front end runs the compiler's recorded
    lowering ([compiled.sir]) through it.

    Each run resolves the lowered program once against one memory
    layout ({!Concrete.layout}) shared by the reference and every
    processor memory: a dense per-statement table holds the mirrored
    index slots, the compiled computes guards and right-hand sides and
    the compiled transfer ops, so a statement instance does no name
    lookup.  Nothing resolved outlives the run. *)

open Phpf_core
module Sir = Phpf_ir.Sir

type t = {
  sir : Sir.program;  (** the lowered program being executed *)
  aggregate : bool;  (** transport mode: one packet per block or element *)
  reference : Memory.t;  (** the sequential reference memory *)
  procs : Memory.t array;  (** one shadow memory per processor *)
  mutable transfers : int;  (** elements copied between processors *)
  runtime : Recover.t;
      (** message runtime: reliable delivery, fault recovery *)
}

(** Execute the compiled program in SPMD fashion by interpreting its
    lowered form.  [init] (deterministic) seeds the reference once, and
    every processor memory starts as a copy of it.  Inter-processor
    copies travel as sequence-numbered, checksummed packets through the
    {!Msg} layer; [faults] injects a
    deterministic fault campaign that {!Recover} detects and repairs
    (raising {!Recover.Unrecoverable} when its retry budget dies).

    The executed program is [c.sir], the compiler's recorded lowering
    (sir-opt rewrites and recovery plan included); [sir] overrides it
    with another lowering of the same compiled program.

    [aggregate] picks the transport, never the program.  With [true]
    (the default) every block transfer ships each placement instance as
    one {!Msg.Block} per (src, dst) pair; with [false] (the
    [--no-aggregate] mode) it ships each buffered element as its own
    single-element packet at the same program point — same elements,
    same [transfers] count, one packet per element instead of one per
    pair.

    @raise Invalid_argument when [sir] is omitted and [c] carries no
    lowered program.

    [fuel] bounds the number of executed statement instances
    ({!Seq_interp.Fuel_exhausted} when exceeded). *)
val run :
  ?init:(Memory.t -> unit) ->
  ?faults:Fault.t ->
  ?recover_config:Recover.config ->
  ?aggregate:bool ->
  ?fuel:int ->
  ?sir:Sir.program ->
  Compiler.compiled ->
  t

(** The message runtime's fault-campaign report for a finished run. *)
val fault_report : t -> Recover.report

(** Measured network traffic of a finished run: packets, blocks,
    elements, wire bytes (retransmits included). *)
val comm_stats : t -> Msg.stats

(** A divergence between a processor's owned copy and the reference. *)
type mismatch = {
  pid : int;
  array : string;
  index : int list;
  got : Value.t;
  expected : Value.t;
}

val pp_mismatch : Format.formatter -> mismatch -> unit

(** Replay the lowered validation plan: check every processor's owned
    elements of every distributed array against the reference.  Empty
    result = consistent execution.  Fully privatized arrays are skipped
    ([NEW] declares them dead after the loop); partially privatized
    arrays are checked along their partitioned grid dimensions — some
    processor on each element's owner line must hold the reference
    value. *)
val validate : ?max_mismatches:int -> t -> mismatch list
