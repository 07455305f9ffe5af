(** Fault detection and recovery supervisor for the SPMD message
    runtime.

    Sits between {!Spmd_interp} and the {!Msg} queues.  Every remote
    write travels through {!transmit}, which runs the full reliable
    delivery protocol: send (possibly injured by the {!Fault} schedule),
    receive, validate sequence number and checksum, and — when the
    packet is lost, stale, reordered or damaged — retransmit with
    exponential backoff, up to a bounded number of attempts.  Every
    write to a processor shadow memory (remote {e and} local) goes
    through {!write} so it lands in a per-processor write-ahead log.

    Payloads address their target by slot and cell index, and the
    executor's local writes do too ({!write_scalar}, {!write_elem}):
    every value lands without a name lookup, and a local write builds
    its {!Msg.payload} only when the write-ahead log records it.

    Crash handling has two regimes.  Under {!Checkpoint} (or whenever no
    compile-time plan is available, or the plan demands checkpoints),
    periodic whole-machine checkpoints plus WAL replay restore the
    crashed processor — the legacy global model.  Under {!Plan} with a
    clean {!Phpf_ir.Sir.recovery_plan}, failover is {e localized}: the
    failure detector (missed heartbeats: Alive → Suspect → Confirmed, no
    randomness) confirms the crash, a fresh shadow memory is rebuilt at
    the post-init state, replicated datums are re-fetched from a
    survivor as priced block transfers through the reliable delivery
    path, and owner-partitioned / privatized datums are reconstructed by
    replaying the crashed processor's own filtered write log — no other
    processor rolls back and no periodic checkpoint is ever taken.

    All detection is by simulated-time timeout, sequence gap or checksum
    mismatch — the supervisor never peeks at the fault schedule — and
    all recovery work is priced through {!Cost_model} so the timing
    simulator can report how much the injected faults cost.  When the
    retry budget is exhausted the run terminates with a structured
    {!Unrecoverable} diagnostic naming the injected fault: silent
    divergence is never an outcome. *)

open Hpf_lang
open Hpf_comm
module Sir = Phpf_ir.Sir

(** Crash-recovery regime: plan-driven localized failover (escalating to
    checkpoints only when the plan says so) or the legacy global
    checkpoint/WAL model. *)
type mode = Plan | Checkpoint

type config = {
  max_retries : int;  (** retransmit attempts per message before giving up *)
  base_timeout : float;
      (** simulated seconds before a receiver declares a packet lost;
          doubles on every retry (exponential backoff) *)
  checkpoint_interval : int;
      (** minimum statement events between shadow-memory checkpoints;
          scaled up for large memories so the copying stays amortized
          (a snapshot costs O(memory), so the interval grows with it) *)
  heartbeat_timeout : float;
      (** simulated seconds without a heartbeat before a processor is
          suspected; a second silent window confirms the crash *)
  mode : mode;
  model : Cost_model.t;  (** prices retransmits, checkpoints and restores *)
}

let default_config =
  {
    max_retries = 8;
    base_timeout = 8.0 *. Cost_model.sp2.Cost_model.alpha;
    checkpoint_interval = 32;
    heartbeat_timeout = 8.0 *. Cost_model.sp2.Cost_model.alpha;
    mode = Plan;
    model = Cost_model.sp2;
  }

(** Raised when recovery is out of options (retry budget exhausted).
    Carries structured diagnostics naming the injected fault; callers
    render them exactly like compile errors. *)
exception Unrecoverable of Diag.t list

type t = {
  config : config;
  faults : Fault.t;
  net : Msg.t;
  procs : Memory.t array;  (** the interpreter's shadow memories *)
  layout : Memory.layout;  (** shared by every shadow memory *)
  nprocs : int;
  elems_per_proc : int;  (** array elements per shadow memory *)
  active : bool;  (** fault schedule has positive rates *)
  localized : bool;
      (** plan-driven failover in force: no periodic checkpoints, WAL
          filtered to re-executed datums, crashes repaired locally *)
  prog : Ast.program;  (** for rebuilding a crashed shadow memory *)
  init : (Memory.t -> unit) option;
      (** re-applied to a rebuilt memory (the post-init baseline) *)
  plan : Sir.recovery_plan option;  (** the compile-time recovery plan *)
  reexec_slots : bool array;
      (** per scalar slot: the datum has a re-execution entry, so the
          localized WAL records its writes *)
  reexec_cells : bool array;  (** the same, per array cell *)
  seen_sids : (Ast.stmt_id, unit) Hashtbl.t;
      (** producing regions entered so far (plan-entry applicability) *)
  interval : int;  (** effective checkpoint interval (memory-scaled) *)
  heartbeat : int;
      (** statement events per processor-fault heartbeat window:
          stall/crash decisions are rolled once per window, so failure
          rates are per unit of simulated progress, not per statement *)
  snapshots : Memory.t array;  (** last checkpoint per processor *)
  wal : Msg.payload list array;
      (** per-processor write-ahead log, newest first: since the last
          checkpoint (legacy regime) or full-history but filtered to
          re-executed datums (localized regime) *)
  mutable events : int;  (** statement-boundary events seen *)
  mutable msg_ops : int;  (** transmit attempts (for fault magnitudes) *)
  (* counters *)
  mutable detected : int;
  mutable timeouts : int;
  mutable checksum_failures : int;
  mutable stale_discards : int;
  mutable retries : int;
  mutable checkpoints : int;
  mutable restores : int;
  mutable stalls : int;
  mutable crashes : int;
  mutable suspects : int;  (** detector Suspect states entered *)
  mutable plan_refetch : int;  (** datums re-fetched from a replica *)
  mutable plan_reexec : int;  (** datums rebuilt by region replay *)
  mutable escalations : int;
      (** crashes that fell back to checkpoint restore although a plan
          was recorded (the plan demanded checkpoints, or P < 2) *)
  mutable recovery_time : float;
      (** simulated fault-tolerance overhead: checkpoints, detection
          waits, retransmits, restores *)
  holdback : (int, Msg.packet) Hashtbl.t;
      (** packet held in flight by a reorder fault, keyed
          [src * nprocs + dst]; sparse — only live pairs appear *)
}

let create ?(config = default_config) ?(faults = Fault.none) ?plan ?init
    (procs : Memory.t array) (prog : Ast.program) : t =
  let nprocs = Array.length procs in
  let layout =
    if nprocs > 0 then Memory.layout_of procs.(0) else Memory.layout prog
  in
  let elems_per_proc =
    List.fold_left
      (fun acc (d : Ast.decl) ->
        if d.shape = [] then acc else acc + Types.size d.shape)
      0 prog.Ast.decls
  in
  let active = Fault.active faults in
  (* localized failover needs a plan with no checkpoint escalation and a
     survivor to re-fetch replicas from *)
  let localized =
    config.mode = Plan && nprocs >= 2
    && (match plan with
       | Some (p : Sir.recovery_plan) -> not p.Sir.checkpoints_needed
       | None -> false)
  in
  let reexec_datums = Hashtbl.create 8 in
  (match plan with
  | Some p ->
      List.iter
        (fun (e : Sir.rentry) ->
          match e.Sir.source with
          | Sir.R_reexec _ -> Hashtbl.replace reexec_datums e.Sir.datum ()
          | Sir.R_replica _ | Sir.R_checkpoint -> ())
        p.Sir.entries
  | None -> ());
  (* keep the amortized snapshot cost bounded: a checkpoint copies
     nprocs * elems elements, so the interval grows with the memory *)
  let interval =
    max config.checkpoint_interval (nprocs * elems_per_proc / 256)
  in
  let reexec_of n name_of =
    Array.init n (fun i -> Hashtbl.mem reexec_datums (name_of layout i))
  in
  {
    config;
    faults;
    net = Msg.create ~nprocs;
    procs;
    layout;
    nprocs;
    elems_per_proc;
    active;
    localized;
    prog;
    init;
    plan;
    reexec_slots = reexec_of (Memory.slot_count layout) Memory.slot_name;
    reexec_cells = reexec_of (Memory.cell_count layout) Memory.cell_name;
    seen_sids = Hashtbl.create 32;
    interval;
    heartbeat = max 1 (interval / 8);
    (* checkpoint 0: the post-[init] state, so a crash before the first
       periodic checkpoint can still restore.  The localized regime
       rebuilds from [init] instead and never snapshots. *)
    snapshots =
      (if active && not localized then Array.map Memory.copy procs
       else [||]);
    wal = Array.make nprocs [];
    events = 0;
    msg_ops = 0;
    detected = 0;
    timeouts = 0;
    checksum_failures = 0;
    stale_discards = 0;
    retries = 0;
    checkpoints = 0;
    restores = 0;
    stalls = 0;
    crashes = 0;
    suspects = 0;
    plan_refetch = 0;
    plan_reexec = 0;
    escalations = 0;
    recovery_time = 0.0;
    holdback = Hashtbl.create 16;
  }

(* ------------------------------------------------------------------ *)
(* Writes and the write-ahead log                                      *)
(* ------------------------------------------------------------------ *)

let apply_payload (m : Memory.t) (p : Msg.payload) : unit =
  match p with
  | Msg.Scalar { slot; value; _ } -> Memory.set_slot m slot value
  | Msg.Elem { cell; index; value; _ } -> Memory.write_elem m cell index value
  | Msg.Block { addr; rank; indices; values; _ } ->
      (* a delivered block lands atomically, in send order (rank 0
         writes the scalar in slot [addr]) *)
      for k = 0 to Array.length values - 1 do
        if rank = 0 then Memory.set_slot m addr values.(k)
        else
          Memory.write_elem_at m addr indices ~pos:(k * rank) ~len:rank
            values.(k)
      done

let payload_datum : Msg.payload -> string = function
  | Msg.Scalar { var; _ } -> var
  | Msg.Elem { base; _ } -> base
  | Msg.Block { base; _ } -> base

(* Does the WAL record writes of this slot (of this cell)?  The
   localized regime logs only datums the plan reconstructs by replay —
   replicated datums are re-fetched whole from a survivor, so logging
   their writes (every mirror of every loop index on every processor)
   would be pure overhead. *)
let logs_slot (t : t) (slot : int) : bool =
  t.active && ((not t.localized) || t.reexec_slots.(slot))

let logs_cell (t : t) (cell : int) : bool =
  t.active && ((not t.localized) || t.reexec_cells.(cell))

let log (t : t) (pid : int) (p : Msg.payload) : unit =
  t.wal.(pid) <- p :: t.wal.(pid)

(** Write to processor [pid]'s shadow memory, recording the write in its
    WAL when it logs the payload's target. *)
let write (t : t) (pid : int) (p : Msg.payload) : unit =
  apply_payload t.procs.(pid) p;
  let logged =
    match p with
    | Msg.Scalar { slot; _ } | Msg.Block { rank = 0; addr = slot; _ } ->
        logs_slot t slot
    | Msg.Elem { cell; _ } | Msg.Block { addr = cell; _ } -> logs_cell t cell
  in
  if logged then log t pid p

(** Slot-addressed {!write} of scalar slot [slot]; the payload is built
    only when the WAL records it.  Rewriting the very value the slot
    holds (a mirrored loop index that has not moved) changes nothing,
    so it is skipped unless logged. *)
let write_scalar (t : t) (pid : int) ~(slot : int) (v : Value.t) : unit =
  let m = t.procs.(pid) in
  if logs_slot t slot then begin
    Memory.set_slot m slot v;
    log t pid
      (Msg.Scalar { var = Memory.slot_name t.layout slot; slot; value = v })
  end
  else if not (Memory.holds m slot v) then Memory.set_slot m slot v

(** Cell-addressed {!write} of element [idx] of array cell [cell]. *)
let write_elem (t : t) (pid : int) ~(cell : int) (idx : int array)
    (v : Value.t) : unit =
  Memory.write_elem t.procs.(pid) cell idx v;
  if logs_cell t cell then
    log t pid
      (Msg.Elem
         {
           base = Memory.cell_name t.layout cell;
           cell;
           index = Array.copy idx;
           value = v;
         })

(* ------------------------------------------------------------------ *)
(* Reliable message delivery                                           *)
(* ------------------------------------------------------------------ *)

let timeout_after (t : t) (attempt : int) : float =
  t.config.base_timeout *. float_of_int (1 lsl attempt)

let release_holdback (t : t) ~src ~dst =
  let k = (src * t.nprocs) + dst in
  match Hashtbl.find_opt t.holdback k with
  | None -> ()
  | Some p ->
      Hashtbl.remove t.holdback k;
      Msg.enqueue t.net p

(* Drain the pair's queue until the expected packet, a corrupt packet or
   emptiness.  Stale sequence numbers (duplicates, released reorder
   holdbacks) are detected and discarded; gaps are impossible with
   per-pair FIFOs but handled defensively as a discard. *)
let rec receive (t : t) ~src ~dst :
    [ `Ok of Msg.packet | `Corrupt | `Timeout ] =
  match Msg.dequeue t.net ~src ~dst with
  | None -> `Timeout
  | Some p ->
      let exp = Msg.expected t.net ~src ~dst in
      if p.Msg.seq <> exp then begin
        t.detected <- t.detected + 1;
        t.stale_discards <- t.stale_discards + 1;
        receive t ~src ~dst
      end
      else if Msg.checksum p.Msg.payload <> p.Msg.check then begin
        t.detected <- t.detected + 1;
        t.checksum_failures <- t.checksum_failures + 1;
        `Corrupt
      end
      else `Ok p

let unrecoverable (t : t) (packet : Msg.packet) (kind : Fault.kind option) =
  let named =
    match kind with
    | Some k -> Fmt.str "injected %s fault" (Fault.kind_to_string k)
    | None -> "repeated message faults"
  in
  raise
    (Unrecoverable
       [
         Diag.errorf ~code:"E0703"
           "unrecoverable communication fault: message %a lost to %s after \
            %d retransmit attempts"
           Msg.pp_packet packet named t.config.max_retries;
       ])

(** Deliver one remote write from [src] to [dst] reliably: inject the
    scheduled fault, detect the damage from the receiver side only, and
    retransmit with exponential backoff until applied or the retry
    budget dies. *)
let transmit (t : t) ~(src : int) ~(dst : int) (payload : Msg.payload) :
    unit =
  release_holdback t ~src ~dst;
  let packet = Msg.make t.net ~src ~dst payload in
  let rec attempt (n : int) (last_fault : Fault.kind option) =
    if n > t.config.max_retries then unrecoverable t packet last_fault;
    if n > 0 then begin
      (* the receiver asked again after its backoff; the retransmit pays
         one point-to-point message of the payload's full size — a lost
         block is retransmitted as a unit, so recovering it costs its
         whole [elems x beta], not a single element's *)
      t.retries <- t.retries + 1;
      t.recovery_time <-
        t.recovery_time
        +. Cost_model.ptp t.config.model ~elems:(Msg.payload_elems payload)
    end;
    let op = t.msg_ops in
    t.msg_ops <- t.msg_ops + 1;
    let fault = Fault.on_message t.faults in
    let delay_t =
      match fault with
      | Some Fault.Drop -> (* vanishes in flight *) None
      | Some Fault.Duplicate ->
          Msg.enqueue t.net packet;
          Msg.enqueue t.net packet;
          None
      | Some Fault.Reorder ->
          (* held back; released in front of the pair's next message *)
          let k = (src * t.nprocs) + dst in
          (match Hashtbl.find_opt t.holdback k with
          | None -> Hashtbl.replace t.holdback k packet
          | Some old ->
              Msg.enqueue t.net old;
              Hashtbl.replace t.holdback k packet);
          None
      | Some Fault.Corrupt ->
          Msg.enqueue t.net
            { packet with Msg.payload = Fault.corrupt_payload payload };
          None
      | Some Fault.Delay ->
          Msg.enqueue t.net packet;
          Some
            (t.config.base_timeout
            *. float_of_int (Fault.magnitude t.faults ~event:op ~n:4)
            /. 2.0)
      | Some (Fault.Stall | Fault.Crash) | None ->
          (* processor faults are injected at statement boundaries *)
          Msg.enqueue t.net packet;
          None
    in
    match receive t ~src ~dst with
    | `Ok p ->
        write t dst p.Msg.payload;
        Msg.advance_expected t.net ~src ~dst;
        (* a delayed packet charges its lateness; past the timeout the
           receiver had already paid a detection round *)
        (match delay_t with
        | Some d when d > timeout_after t n ->
            t.detected <- t.detected + 1;
            t.timeouts <- t.timeouts + 1;
            t.retries <- t.retries + 1;
            t.recovery_time <-
              t.recovery_time +. timeout_after t n
              +. Cost_model.ptp t.config.model
                   ~elems:(Msg.payload_elems payload)
        | Some d -> t.recovery_time <- t.recovery_time +. d
        | None -> ())
    | `Corrupt ->
        (* checksum mismatch is detected on receipt: no timeout wait *)
        attempt (n + 1) fault
    | `Timeout ->
        t.detected <- t.detected + 1;
        t.timeouts <- t.timeouts + 1;
        t.recovery_time <- t.recovery_time +. timeout_after t n;
        attempt (n + 1) fault
  in
  attempt 0 None

(* ------------------------------------------------------------------ *)
(* Checkpoint / restart                                                *)
(* ------------------------------------------------------------------ *)

let take_checkpoint (t : t) =
  Array.iteri (fun p m -> t.snapshots.(p) <- Memory.copy m) t.procs;
  Array.fill t.wal 0 t.nprocs [];
  t.checkpoints <- t.checkpoints + 1;
  (* processors snapshot in parallel: one memory's copy cost *)
  t.recovery_time <-
    t.recovery_time
    +. (t.config.model.Cost_model.copy *. float_of_int t.elems_per_proc)

(* A crash loses processor [pid]'s shadow memory.  Legacy (checkpoint)
   regime: the supervisor detects the dead heartbeat, restores the last
   checkpoint and replays the write-ahead log, leaving the memory
   bit-identical to the pre-crash state. *)
let crash (t : t) (pid : int) =
  t.crashes <- t.crashes + 1;
  t.detected <- t.detected + 1;
  t.timeouts <- t.timeouts + 1;
  (* an escalation is a plan-regime crash the plan could not localize
     (checkpoints demanded, or no survivor); forced --recovery
     checkpoint is not an escalation *)
  if t.config.mode = Plan && t.plan <> None then
    t.escalations <- t.escalations + 1;
  let m = Memory.copy t.snapshots.(pid) in
  let log = List.rev t.wal.(pid) in
  List.iter (apply_payload m) log;
  t.procs.(pid) <- m;
  t.restores <- t.restores + 1;
  let log_elems =
    List.fold_left (fun acc p -> acc + Msg.payload_elems p) 0 log
  in
  t.recovery_time <-
    t.recovery_time +. t.config.base_timeout
    +. (t.config.model.Cost_model.copy
       *. float_of_int (t.elems_per_proc + log_elems))

(* Localized plan-driven failover: only processor [pid]'s state is
   reconstructed; no survivor rolls back.  The failure detector misses
   one heartbeat (Suspect), then a second (Confirmed) — two heartbeat
   windows of detection latency.  A fresh shadow memory is rebuilt at
   the post-init baseline, then every datum is repaired from its latest
   applicable plan entry: replicated datums are re-fetched whole from
   the lowest-numbered survivor through the reliable delivery path (the
   refetch is itself subject to message faults and priced as one block
   transfer); re-executed datums replay the crashed processor's own
   filtered write log, bit-identically, at local copy speed. *)
let failover (t : t) (pid : int) =
  t.crashes <- t.crashes + 1;
  t.suspects <- t.suspects + 1;
  t.detected <- t.detected + 1;
  t.timeouts <- t.timeouts + 1;
  t.recovery_time <-
    t.recovery_time +. (2.0 *. t.config.heartbeat_timeout);
  let plan =
    match t.plan with Some p -> p | None -> assert false (* localized *)
  in
  let m = Memory.create_in t.layout in
  (match t.init with Some f -> f m | None -> ());
  t.procs.(pid) <- m;
  let donor = if pid = 0 then 1 else 0 in
  (* latest applicable entry per datum: baselines apply from init,
     region-armed entries once their region has been entered *)
  let chosen : (string, Sir.rentry) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (e : Sir.rentry) ->
      let applicable =
        match e.Sir.from_region with
        | None -> true
        | Some s -> Hashtbl.mem t.seen_sids s
      in
      if applicable then Hashtbl.replace chosen e.Sir.datum e)
    plan.Sir.entries;
  let refetch (d : Ast.decl) =
    t.plan_refetch <- t.plan_refetch + 1;
    let from = t.procs.(donor) in
    let name = d.Ast.dname in
    let payload =
      if d.Ast.shape = [] then
        let slot = Option.get (Memory.slot t.layout name) in
        Msg.Scalar { var = name; slot; value = Memory.get_slot from slot }
      else begin
        (* the donor's whole array, in storage order *)
        let cell = Option.get (Memory.cell t.layout name) in
        let c = from.Memory.cells.(cell) in
        let rank = List.length d.Ast.shape in
        let n = Types.size d.Ast.shape in
        let indices = Array.make (n * rank) 0 in
        let values = Array.make n (Value.I 0) in
        Memory.iter_cell c (fun idx off ->
            Array.blit idx 0 indices (off * rank) rank;
            values.(off) <- Memory.read_off c off);
        Msg.Block { base = name; addr = cell; rank; indices; values }
      end
    in
    transmit t ~src:donor ~dst:pid payload;
    t.recovery_time <-
      t.recovery_time
      +. Cost_model.ptp t.config.model ~elems:(Msg.payload_elems payload)
  in
  let replay (d : Ast.decl) =
    t.plan_reexec <- t.plan_reexec + 1;
    let log =
      List.filter
        (fun p -> String.equal (payload_datum p) d.Ast.dname)
        (List.rev t.wal.(pid))
    in
    List.iter (apply_payload t.procs.(pid)) log;
    let elems =
      List.fold_left (fun acc p -> acc + Msg.payload_elems p) 0 log
    in
    t.recovery_time <-
      t.recovery_time
      +. (t.config.model.Cost_model.copy *. float_of_int elems)
  in
  List.iter
    (fun (d : Ast.decl) ->
      match Hashtbl.find_opt chosen d.Ast.dname with
      | Some { Sir.source = Sir.R_replica _; _ } -> refetch d
      | Some { Sir.source = Sir.R_reexec _; _ } -> replay d
      | Some { Sir.source = Sir.R_checkpoint; _ } ->
          (* localized implies checkpoints_needed = false *)
          assert false
      | None -> ())
    t.prog.Ast.decls;
  (* undeclared scalars (loop indices, materialized by mirror /
     loop-head writes) are [P_all]-maintained — every survivor holds the
     same value, so one scalar refetch per index restores them;
     ascending name order keeps the repair sequence deterministic *)
  List.iter
    (fun (name, value) ->
      if Ast.find_decl t.prog name = None then begin
        t.plan_refetch <- t.plan_refetch + 1;
        let slot = Option.get (Memory.slot t.layout name) in
        transmit t ~src:donor ~dst:pid (Msg.Scalar { var = name; slot; value })
      end)
    (Memory.scalars t.procs.(donor))

let stall (t : t) (_pid : int) =
  t.stalls <- t.stalls + 1;
  t.detected <- t.detected + 1;
  t.timeouts <- t.timeouts + 1;
  (* localized regime: the detector enters Suspect, then the stalled
     processor's heartbeat arrives and it returns to Alive *)
  if t.localized then t.suspects <- t.suspects + 1;
  (* heartbeat times out and is retried until the processor responds *)
  t.retries <- t.retries + 1;
  let d =
    t.config.base_timeout
    *. float_of_int (Fault.magnitude t.faults ~event:t.events ~n:8)
  in
  t.recovery_time <- t.recovery_time +. t.config.base_timeout +. d

(** Statement-boundary hook: periodic checkpointing (legacy regime
    only), then the schedule's processor-level faults (stall / crash)
    with their recovery.  [sid] marks the statement's region as entered
    {e after} fault handling, so a crash at the boundary of a region
    uses the pre-entry plan interval. *)
let stmt_boundary ~(sid : Ast.stmt_id) (t : t) : unit =
  if t.active then begin
    t.events <- t.events + 1;
    if
      (not t.localized) && t.interval > 0 && t.events mod t.interval = 0
    then take_checkpoint t;
    if t.events mod t.heartbeat = 0 then
      (match Fault.on_processor t.faults ~nprocs:t.nprocs with
      | Some (pid, Fault.Stall) -> stall t pid
      | Some (pid, Fault.Crash) ->
          if t.localized then failover t pid else crash t pid
      | Some _ | None -> ());
    Hashtbl.replace t.seen_sids sid ()
  end

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

type report = {
  injected : (Fault.kind * int) list;
  total_injected : int;
  detected : int;
  timeouts : int;
  checksum_failures : int;
  stale_discards : int;
  retries : int;
  checkpoints : int;
  restores : int;
  stalls : int;
  crashes : int;
  suspects : int;
  plan_refetch : int;
  plan_reexec : int;
  escalations : int;
  messages_sent : int;
  messages_delivered : int;
  recovery_time : float;
}

(** Traffic accounting of the supervised network (packets, blocks,
    elements, wire bytes — retransmits included). *)
let net_stats (t : t) : Msg.stats = Msg.stats t.net

let report (t : t) : report =
  {
    injected = Fault.injected t.faults;
    total_injected = Fault.total_injected t.faults;
    detected = t.detected;
    timeouts = t.timeouts;
    checksum_failures = t.checksum_failures;
    stale_discards = t.stale_discards;
    retries = t.retries;
    checkpoints = t.checkpoints;
    restores = t.restores;
    stalls = t.stalls;
    crashes = t.crashes;
    suspects = t.suspects;
    plan_refetch = t.plan_refetch;
    plan_reexec = t.plan_reexec;
    escalations = t.escalations;
    messages_sent = t.net.Msg.sent;
    messages_delivered = t.net.Msg.delivered;
    recovery_time = t.recovery_time;
  }

let pp_report ppf (r : report) =
  Fmt.pf ppf "fault campaign: %d injected (%a), %d detected@."
    r.total_injected
    Fmt.(
      list ~sep:(any ", ") (fun ppf (k, n) ->
          pf ppf "%a %d" Fault.pp_kind k n))
    r.injected r.detected;
  Fmt.pf ppf
    "  detection: %d timeouts, %d checksum failures, %d stale discards@."
    r.timeouts r.checksum_failures r.stale_discards;
  Fmt.pf ppf
    "  recovery: %d retransmits, %d checkpoints, %d restores, %d stalls \
     ridden out, %d crashes@."
    r.retries r.checkpoints r.restores r.stalls r.crashes;
  if r.suspects + r.plan_refetch + r.plan_reexec + r.escalations > 0 then
    Fmt.pf ppf
      "  failover: %d suspected, %d replica refetches, %d region replays, \
       %d checkpoint escalations@."
      r.suspects r.plan_refetch r.plan_reexec r.escalations;
  Fmt.pf ppf "  messages: %d sent, %d delivered; recovery time %.6f s@."
    r.messages_sent r.messages_delivered r.recovery_time
