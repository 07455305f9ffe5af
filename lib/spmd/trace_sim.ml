(** Trace-driven timing simulation of a compiled program on an SP2-like
    machine.

    The lowered program's control skeleton is executed once with
    reference (sequential) semantics; at every statement instance its
    recorded computes predicate is evaluated concretely ({!Concrete}),
    and the statement's arithmetic cost is charged to the clocks of the
    processors it selects.  Communication time is charged from the
    lowered program's communication ops, with instance counts and
    message sizes
    {e measured} from the same trace (distinct enclosing-iteration
    prefixes at the placement level), so triangular loops and early
    exits are priced exactly rather than from static bound guesses.

    The reported time is [max over processors of compute + total
    communication] — a bulk-synchronous approximation that preserves the
    paper's relative comparisons: replicated execution shows no compute
    speedup, and badly mapped variables show communication that grows
    with iteration count instead of being vectorized away. *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping
open Hpf_comm
open Phpf_core
module Sir = Phpf_ir.Sir

type result = {
  nprocs : int;
  time : float;  (** compute_max + comm_time + recovery_time *)
  compute_max : float;
  compute_total : float;
  comm_time : float;
  comm_messages : int;  (** total communication instances *)
  comm_elems : int;  (** total elements moved *)
  packets : int;
      (** network packets: measured from an SPMD run when available,
          otherwise the schedule's message count (one packet per
          communication instance — blocks make this far smaller than
          [comm_elems]) *)
  bytes : int;  (** wire bytes (headers included), same provenance *)
  stmt_instances : int;
  mem_elems_max : int;
      (** per-processor memory footprint (elements), max over
          processors — exposes the cost of expansion-style
          transformations *)
  recovery_time : float;
      (** fault-tolerance overhead from an SPMD fault campaign
          (checkpoints, detection timeouts, retransmits, restores);
          zero when the run was not injured *)
}

let pp_result ppf (r : result) =
  Fmt.pf ppf
    "P=%d time=%.4fs (compute max %.4fs, total %.4fs; comm %.4fs in %d msgs, %d elems; mem %d elems/proc)"
    r.nprocs r.time r.compute_max r.compute_total r.comm_time
    r.comm_messages r.comm_elems r.mem_elems_max;
  if r.recovery_time > 0.0 then
    Fmt.pf ppf " + recovery %.4fs" r.recovery_time

(* One statement's pricing record, resolved once per run from the
   priced program: its arithmetic time, the enclosing loop indices it
   mirrors (outermost first, by name and by slot), its compiled computes
   predicate ([None]: every processor) with the charge of one instance
   to one processor's clock, and the trace measured at its instances —
   [counts.(lv)] is the number of distinct iteration prefixes of length
   [lv] seen so far, [last] the latest index vector. *)
type stmt_rec = {
  cost : float;
  mirror : string list;
  slots : int array;
  computes : Pid_set.t Eval.code option;
  charge : int -> unit;
  mutable execs : int;
  last : int array;
  counts : int array;  (** length = nest level + 1 *)
}

let stmt_rec_of model (l : Memory.layout) (sir : Sir.program)
    (clocks : float array) (s : Ast.stmt) : stmt_rec =
  let mirror, computes =
    match Sir.stmt_ops sir s.Ast.sid with
    | Some { Sir.mirror; exec; _ } -> (
        ( mirror,
          match exec with
          | Sir.Guarded_assign { computes; _ } | Sir.Control { computes } ->
              computes
          | Sir.Loop_head _ -> Sir.P_all ))
    | None -> ([], Sir.P_all)
  in
  let level = List.length mirror in
  let slot v =
    match Memory.slot l v with
    | Some i -> i
    | None -> invalid_arg ("Trace_sim: no slot for " ^ v)
  in
  let cost = Cost_model.compute model ~flops:(Eval.stmt_flops s) in
  {
    cost;
    mirror;
    slots = Array.of_list (List.map slot mirror);
    computes =
      (match computes with
      | Sir.P_all -> None
      | p -> Some (Concrete.pred l sir.Sir.grid p));
    charge = (fun p -> clocks.(p) <- clocks.(p) +. cost);
    execs = 0;
    last = Array.make level 0;
    counts = Array.make (level + 1) 0;
  }

(* Record an instance's index vector into [r.last]; returns the 1-based
   position of the outermost index that moved, or [first] when it is
   smaller. *)
let advance (r : stmt_rec) (m : Memory.t) first =
  let first = ref first in
  for k = 0 to Array.length r.slots - 1 do
    let x = Value.to_int (Memory.get_slot m r.slots.(k)) in
    if x <> r.last.(k) then begin
      r.last.(k) <- x;
      if k + 1 < !first then first := k + 1
    end
  done;
  !first

let run ?(model = Cost_model.sp2) ?init ?stats:(driver_stats : Phpf_driver.Stats.t option)
    ?(recovery : Recover.report option) ?(comm_stats : Msg.stats option)
    ?(sir : Sir.program option) ?(fuel = Seq_interp.default_fuel)
    (c : Compiler.compiled) : result * Memory.t =
  let sir = match sir with Some s -> s | None -> Compiler.sir_exn c in
  let nprocs = sir.Sir.nprocs in
  let clocks = Array.make nprocs 0.0 in
  (* every name and guard resolved once, against the run's layout; the
     records form a dense table indexed by statement id *)
  let layout = Concrete.layout sir in
  let max_sid = ref 0 in
  Ast.iter_program (fun s -> max_sid := max !max_sid s.Ast.sid) sir.Sir.source;
  let table : stmt_rec option array = Array.make (!max_sid + 1) None in
  Ast.iter_program
    (fun s ->
      table.(s.Ast.sid) <- Some (stmt_rec_of model layout sir clocks s))
    sir.Sir.source;
  let record sid = if sid >= 0 && sid <= !max_sid then table.(sid) else None in
  let total_instances = ref 0 in
  let compute_total = ref 0.0 in
  (* time charged to EVERY processor (replicated statements): folding it
     into one accumulator instead of P clock updates makes replicated
     instances O(1), which is what keeps P=1024 sub-second *)
  let all_offset = ref 0.0 in
  let on_stmt (s : Ast.stmt) (m : Memory.t) =
    incr total_instances;
    let r = Option.get table.(s.Ast.sid) in
    (* measure iteration prefixes: every length from the outermost
       index that moved on counts a new prefix (all of them at the
       first instance) *)
    let first_diff =
      advance r m (if r.execs = 0 then 0 else Array.length r.counts)
    in
    for lv = first_diff to Array.length r.counts - 1 do
      r.counts.(lv) <- r.counts.(lv) + 1
    done;
    r.execs <- r.execs + 1;
    (* charge compute to executing processors, via closed-form sets: a
       replicated statement costs one accumulator add, an owned one
       costs |set| clock updates (usually 1) *)
    let t = r.cost in
    match r.computes with
    | None ->
        all_offset := !all_offset +. t;
        compute_total := !compute_total +. (t *. float_of_int nprocs)
    | Some computes ->
        let set = computes m in
        if Pid_set.is_all set then all_offset := !all_offset +. t
        else Pid_set.iter r.charge set;
        compute_total :=
          !compute_total +. (t *. float_of_int (Pid_set.count set))
  in
  let config = { Seq_interp.fuel; on_stmt = Some on_stmt } in
  let mem = Memory.create_in layout in
  (match init with Some f -> f mem | None -> ());
  Seq_interp.run_in ~config mem sir.Sir.source;
  (* price the lowered program's communication ops, in schedule order,
     from the measured trace (the ops carry their source schedule
     entries, so the cost model sees their kinds, levels and scales) *)
  let comm_time = ref 0.0 in
  let comm_messages = ref 0 in
  let comm_elems = ref 0 in
  List.iter
    (fun (op : Sir.comm_op) ->
      let cm = op.Sir.cm in
      match record cm.Comm.data.Aref.sid with
      | Some r when r.execs > 0 ->
          let level = Array.length r.counts - 1 in
          let placement = min cm.Comm.placement_level level in
          let instances = r.counts.(placement) in
          (* message size: product of measured average trips of the
             crossed loops over which the message aggregates, times the
             shift-boundary scale (mirror position k is loop level k+1) *)
          let elems = ref (float_of_int cm.Comm.scale) in
          List.iteri
            (fun k index ->
              let lv = k + 1 in
              if
                lv > placement
                && List.mem index cm.Comm.agg_vars
                && r.counts.(lv - 1) > 0
              then
                elems :=
                  !elems
                  *. (float_of_int r.counts.(lv)
                     /. float_of_int r.counts.(lv - 1)))
            r.mirror;
          let elems = max 1 (int_of_float (Float.round !elems)) in
          let cm' =
            { cm with Comm.instances; elems_per_instance = elems }
          in
          comm_time := !comm_time +. Comm.cost model ~nprocs cm';
          comm_messages := !comm_messages + instances;
          comm_elems := !comm_elems + (instances * elems)
      | _ -> () (* statement never executed *))
    (Sir.schedule sir);
  let compute_max = Array.fold_left Float.max 0.0 clocks +. !all_offset in
  let recovery_time =
    match recovery with
    | Some rep -> rep.Recover.recovery_time
    | None -> 0.0
  in
  (* packet/byte accounting: measured traffic when an SPMD run supplied
     it, otherwise estimated from the schedule (one packet per
     communication instance) *)
  let packets, bytes =
    match comm_stats with
    | Some (ms : Msg.stats) -> (ms.Msg.packets, ms.Msg.bytes)
    | None ->
        ( !comm_messages,
          (!comm_messages * Msg.header_bytes)
          + (!comm_elems * Msg.elem_bytes) )
  in
  let r =
    {
      nprocs;
      time = compute_max +. !comm_time +. recovery_time;
      compute_max;
      compute_total = !compute_total;
      comm_time = !comm_time;
      comm_messages = !comm_messages;
      comm_elems = !comm_elems;
      packets;
      bytes;
      stmt_instances = !total_instances;
      mem_elems_max =
        Layout.max_local_elems c.Compiler.decisions.Decisions.env;
      recovery_time;
    }
  in
  (* hook the measured trace into the driver's instrumentation channel *)
  (match driver_stats with
  | None -> ()
  | Some st ->
      let module Stats = Phpf_driver.Stats in
      Stats.set st "sim.procs" r.nprocs;
      Stats.set st "sim.stmt-instances" r.stmt_instances;
      Stats.set st "sim.comm-messages" r.comm_messages;
      Stats.set st "sim.comm-elems" r.comm_elems;
      Stats.set st "sim.packets" r.packets;
      Stats.set st "sim.bytes" r.bytes;
      Stats.set st "sim.mem-elems-max" r.mem_elems_max;
      Stats.set st "sim.time-us" (int_of_float (1e6 *. r.time));
      Stats.set st "sim.comm-time-us" (int_of_float (1e6 *. r.comm_time));
      match recovery with
      | None -> ()
      | Some rep ->
          Stats.set st "sim.faults-injected" rep.Recover.total_injected;
          List.iter
            (fun (k, n) ->
              Stats.set st ("sim.faults-" ^ Fault.kind_to_string k) n)
            rep.Recover.injected;
          Stats.set st "sim.faults-detected" rep.Recover.detected;
          Stats.set st "sim.retries" rep.Recover.retries;
          Stats.set st "sim.checkpoints" rep.Recover.checkpoints;
          Stats.set st "sim.restores" rep.Recover.restores;
          Stats.set st "sim.suspects" rep.Recover.suspects;
          Stats.set st "sim.plan-refetch" rep.Recover.plan_refetch;
          Stats.set st "sim.plan-reexec" rep.Recover.plan_reexec;
          Stats.set st "sim.escalations" rep.Recover.escalations;
          Stats.set st "sim.recovery-time-us"
            (int_of_float (1e6 *. r.recovery_time)));
  (r, mem)
