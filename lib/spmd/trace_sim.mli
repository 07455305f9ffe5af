(** Trace-driven timing simulation of a compiled program on an SP2-like
    machine.

    The lowered program executes once with reference semantics; every
    statement instance is charged to the processors its recorded computes
    predicate selects (evaluated by {!Concrete}), and the program's
    communication ops are priced with instance counts and message sizes
    measured from the same trace.  Reported time
    is [max-processor compute + total communication] — a bulk-synchronous
    approximation that preserves the paper's relative comparisons. *)

open Phpf_core

type result = {
  nprocs : int;
  time : float;  (** compute_max + comm_time + recovery_time *)
  compute_max : float;  (** busiest processor's arithmetic time *)
  compute_total : float;  (** summed over processors *)
  comm_time : float;
  comm_messages : int;  (** total communication instances *)
  comm_elems : int;  (** total elements moved *)
  packets : int;
      (** network packets: measured from an SPMD run's {!Msg.stats} when
          supplied, otherwise the schedule's message count *)
  bytes : int;  (** wire bytes (headers included), same provenance *)
  stmt_instances : int;  (** interpreted statement instances *)
  mem_elems_max : int;
      (** per-processor memory footprint in elements (max over
          processors) *)
  recovery_time : float;
      (** fault-tolerance overhead of an SPMD fault campaign; zero when
          no [recovery] report was supplied *)
}

val pp_result : Format.formatter -> result -> unit

(** Run the simulation.  [init] seeds the memory (see {!Init});
    [model] defaults to {!Hpf_comm.Cost_model.sp2}.  [stats] hooks the
    simulator into the driver's instrumentation: measured counters
    ([sim.stmt-instances], [sim.comm-messages], [sim.comm-elems],
    [sim.mem-elems-max], [sim.time-us], ...) are recorded into it, so
    the CLI and custom drivers report simulation and compilation
    statistics through one channel.  [recovery] prices a fault campaign
    from a {!Spmd_interp} run under injection: its recovery time is
    added to the reported time and its counters are recorded as
    [sim.faults-*], [sim.retries], [sim.checkpoints], [sim.restores]
    and [sim.recovery-time-us].  [comm_stats] substitutes measured
    network traffic (from {!Spmd_interp.comm_stats}) for the schedule
    estimate behind [sim.packets]/[sim.bytes].  The priced program is
    [c.sir], the compiler's recorded lowering — the one {!Spmd_interp}
    executes — unless [sir] overrides it.  That program alone decides
    what is charged: its computes predicates (of assignments and
    control statements) pick who pays each instance, its mirrored loop
    indices size the messages, and its communication ops are charged in
    schedule order, so ops dropped at lowering or deleted by sir-opt
    cost nothing.  Of [c] only the decisions' layouts are read, for
    [mem_elems_max].  [fuel] bounds interpreted statement
    instances ({!Seq_interp.Fuel_exhausted} when exceeded).  Returns
    the timing result and the final (reference) memory.
    @raise Invalid_argument when [sir] is omitted and [c] carries no
    lowered program. *)
val run :
  ?model:Hpf_comm.Cost_model.t ->
  ?init:(Memory.t -> unit) ->
  ?stats:Phpf_driver.Stats.t ->
  ?recovery:Recover.report ->
  ?comm_stats:Msg.stats ->
  ?sir:Phpf_ir.Sir.program ->
  ?fuel:int ->
  Compiler.compiled ->
  result * Memory.t
