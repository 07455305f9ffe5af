(** Fault detection and recovery supervisor for the SPMD message
    runtime.

    All remote writes travel through {!transmit} (reliable delivery:
    sequence/checksum validation, bounded retransmit with exponential
    backoff); all shadow-memory writes travel through {!write} (a
    write-ahead log per processor); {!stmt_boundary} injects/recovers
    processor-level faults (stall, crash).

    Crashes are repaired by one of two regimes.  Under {!Checkpoint} —
    or whenever no compile-time plan is available, the plan demands
    checkpoints, or the machine has no survivor — periodic whole-machine
    checkpoints plus write-ahead-log replay restore the crashed
    processor.  Under {!Plan} with a clean {!Phpf_ir.Sir.recovery_plan},
    failover is {e localized}: the failure detector (missed heartbeats,
    Alive → Suspect → Confirmed) confirms the crash, only the crashed
    processor's memory is rebuilt — replicated datums re-fetched from a
    survivor through the reliable delivery path, privatized /
    owner-partitioned datums replayed from the crashed processor's own
    filtered log — and no periodic checkpoint is ever taken.

    Detection is purely observational — simulated-time timeouts,
    sequence gaps, checksum mismatches — and every recovery action is
    priced through {!Cost_model} so {!Trace_sim} can report the cost of
    a degraded run. *)

open Hpf_lang
open Hpf_comm

(** Crash-recovery regime: plan-driven localized failover (escalating to
    the checkpoint model only when the plan says so) or the legacy
    global checkpoint/WAL model. *)
type mode = Plan | Checkpoint

type config = {
  max_retries : int;  (** retransmit attempts per message before giving up *)
  base_timeout : float;
      (** simulated seconds before a receiver declares a packet lost;
          doubles on every retry (exponential backoff) *)
  checkpoint_interval : int;
      (** minimum statement events between shadow-memory checkpoints;
          scaled up for large memories so the copying stays amortized *)
  heartbeat_timeout : float;
      (** simulated seconds without a heartbeat before a processor is
          suspected; a second silent window confirms the crash *)
  mode : mode;
  model : Cost_model.t;  (** prices retransmits, checkpoints and restores *)
}

val default_config : config

(** Raised when recovery is out of options (retry budget exhausted).
    Carries structured diagnostics ([E0703]) naming the injected fault. *)
exception Unrecoverable of Diag.t list

type t

(** [create procs prog] supervises the interpreter's shadow memories.
    [plan] is the compile-time recovery plan attached by the
    [recovery-plan] pass; [init] is re-applied when a crashed memory is
    rebuilt from scratch (the localized regime's baseline).  With an
    active fault schedule but no usable plan it snapshots the post-init
    state as checkpoint zero; inert schedules skip all bookkeeping. *)
val create :
  ?config:config ->
  ?faults:Fault.t ->
  ?plan:Phpf_ir.Sir.recovery_plan ->
  ?init:(Memory.t -> unit) ->
  Memory.t array ->
  Ast.program ->
  t

(** Write a payload to processor [pid]'s shadow memory, recording it in
    the write-ahead log when faults are active (the localized regime
    logs only datums the plan reconstructs by replay). *)
val write : t -> int -> Msg.payload -> unit

(** [write_scalar t pid ~slot v] is [write t pid (Scalar {var; slot;
    value = v})] for the scalar in [slot] of the shadow memories'
    layout; the payload is built only when the log records it.  A
    write of the very value the slot already holds (physically) is
    skipped unless the log records it. *)
val write_scalar : t -> int -> slot:int -> Value.t -> unit

(** [write_elem t pid ~cell idx v] is [write t pid (Elem {base; cell;
    index = idx; value = v})] for element [idx] of array [cell] (the
    index vector is read, and copied only into a logged payload). *)
val write_elem : t -> int -> cell:int -> int array -> Value.t -> unit

(** Deliver one remote write reliably from [src] to [dst] (applying it
    via {!write} on receipt).  Raises {!Unrecoverable} when the retry
    budget is exhausted. *)
val transmit : t -> src:int -> dst:int -> Msg.payload -> unit

(** Per-statement hook: periodic checkpointing (legacy regime only) plus
    processor-level fault injection and recovery (stall ride-out,
    localized failover or checkpoint restore-and-replay).  [sid] marks
    the statement's producing region as entered, arming the plan entries
    it guards. *)
val stmt_boundary : sid:Ast.stmt_id -> t -> unit

type report = {
  injected : (Fault.kind * int) list;  (** per-kind injections *)
  total_injected : int;
  detected : int;  (** faults noticed by the supervisor *)
  timeouts : int;
  checksum_failures : int;
  stale_discards : int;  (** duplicate / reordered packets discarded *)
  retries : int;  (** retransmits (and heartbeat retries) *)
  checkpoints : int;
  restores : int;  (** full checkpoint restores (legacy regime) *)
  stalls : int;
  crashes : int;
  suspects : int;  (** failure-detector Suspect states entered *)
  plan_refetch : int;  (** datums re-fetched from a surviving replica *)
  plan_reexec : int;  (** datums rebuilt by region replay *)
  escalations : int;
      (** crashes that fell back to checkpoint restore although a plan
          was recorded *)
  messages_sent : int;
  messages_delivered : int;
  recovery_time : float;
      (** simulated fault-tolerance overhead, seconds *)
}

(** Traffic accounting of the supervised network (packets, blocks,
    elements, wire bytes — retransmits included). *)
val net_stats : t -> Msg.stats

val report : t -> report
val pp_report : Format.formatter -> report -> unit
