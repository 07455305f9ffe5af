(** Trace-driven timing simulation of a compiled program on an SP2-like
    machine.

    The program is executed once with reference (sequential) semantics;
    at every statement instance the set of executing processors is
    resolved concretely from the computation-partitioning guards, and the
    statement's arithmetic cost is charged to each of their clocks.
    Communication time is charged from the lowered program's
    communication ops, with instance counts and message sizes
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
open Hpf_comm
open Phpf_core

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

(* Per-statement prefix-change counters: counts.(lv) = number of distinct
   iteration prefixes of length lv seen at this statement. *)
type stmt_stats = {
  mutable execs : int;
  mutable last : int list;  (** last enclosing-index value vector *)
  counts : int array;  (** length = nest level + 1 *)
}

let run ?(model = Cost_model.sp2) ?init ?stats:(driver_stats : Phpf_driver.Stats.t option)
    ?(recovery : Recover.report option) ?(comm_stats : Msg.stats option)
    ?(sir : Phpf_ir.Sir.program option) ?(fuel = Seq_interp.default_fuel)
    (c : Compiler.compiled) : result * Memory.t =
  let sir = match sir with Some s -> s | None -> Compiler.sir_exn c in
  let d = c.Compiler.decisions in
  let prog = c.Compiler.prog in
  let nest = d.Decisions.nest in
  let env = d.Decisions.env in
  let nprocs = Hpf_mapping.Grid.size env.Hpf_mapping.Layout.grid in
  let clocks = Array.make nprocs 0.0 in
  let stats : (Ast.stmt_id, stmt_stats) Hashtbl.t = Hashtbl.create 64 in
  let flops_of : (Ast.stmt_id, int) Hashtbl.t = Hashtbl.create 64 in
  let indices_of : (Ast.stmt_id, string list) Hashtbl.t = Hashtbl.create 64 in
  Ast.iter_program
    (fun s ->
      Hashtbl.replace flops_of s.sid (Eval.stmt_flops s);
      Hashtbl.replace indices_of s.sid (Nest.enclosing_indices nest s.sid))
    prog;
  let total_instances = ref 0 in
  let compute_total = ref 0.0 in
  (* time charged to EVERY processor (replicated statements): folding it
     into one accumulator instead of P clock updates makes replicated
     instances O(1), which is what keeps P=1024 sub-second *)
  let all_offset = ref 0.0 in
  (* guards that do not depend on iteration state can be cached *)
  let static_all : (Ast.stmt_id, bool) Hashtbl.t = Hashtbl.create 64 in
  let on_stmt (s : Ast.stmt) (m : Memory.t) =
    incr total_instances;
    let level = List.length (Hashtbl.find indices_of s.sid) in
    let st =
      match Hashtbl.find_opt stats s.sid with
      | Some st -> st
      | None ->
          let st = { execs = 0; last = []; counts = Array.make (level + 1) 0 } in
          Hashtbl.replace stats s.sid st;
          st
    in
    (* measure iteration prefixes *)
    let cur =
      List.map
        (fun v -> Value.to_int (Memory.get_scalar m v))
        (Hashtbl.find indices_of s.sid)
    in
    let first_diff =
      if st.execs = 0 then 0
      else begin
        let rec fd k a b =
          match (a, b) with
          | x :: xs, y :: ys -> if x <> y then k else fd (k + 1) xs ys
          | _ -> level + 1
        in
        fd 1 cur st.last
      end
    in
    for lv = 0 to level do
      if lv >= first_diff || st.execs = 0 then
        st.counts.(lv) <- st.counts.(lv) + 1
    done;
    st.execs <- st.execs + 1;
    st.last <- cur;
    (* charge compute to executing processors, via closed-form sets: a
       replicated statement costs one accumulator add, an owned one
       costs |set| clock updates (usually 1) *)
    let t = Cost_model.compute model ~flops:(Hashtbl.find flops_of s.sid) in
    let is_static_all =
      match Hashtbl.find_opt static_all s.sid with
      | Some b -> b
      | None ->
          let b =
            match Decisions.guard_of_stmt d s with
            | Decisions.G_all -> true
            | _ -> false
          in
          Hashtbl.replace static_all s.sid b;
          b
    in
    if is_static_all then begin
      all_offset := !all_offset +. t;
      compute_total := !compute_total +. (t *. float_of_int nprocs)
    end
    else begin
      let set = Concrete.executing_set d m s in
      if Hpf_mapping.Pid_set.is_all set then
        all_offset := !all_offset +. t
      else
        Hpf_mapping.Pid_set.iter
          (fun p -> clocks.(p) <- clocks.(p) +. t)
          set;
      compute_total :=
        !compute_total
        +. (t *. float_of_int (Hpf_mapping.Pid_set.count set))
    end
  in
  let config = { Seq_interp.fuel; on_stmt = Some on_stmt } in
  let mem = Seq_interp.run ~config ?init prog in
  (* price the lowered program's communication ops, in schedule order,
     from the measured trace (the ops carry their source schedule
     entries, so the cost model sees their kinds, levels and scales) *)
  let comms_to_price =
    List.map
      (fun (op : Phpf_ir.Sir.comm_op) -> op.Phpf_ir.Sir.cm)
      (Phpf_ir.Sir.schedule sir)
  in
  let comm_time = ref 0.0 in
  let comm_messages = ref 0 in
  let comm_elems = ref 0 in
  List.iter
    (fun (cm : Comm.t) ->
      let sid = cm.Comm.data.Aref.sid in
      match Hashtbl.find_opt stats sid with
      | None -> () (* statement never executed *)
      | Some st ->
          let level = Array.length st.counts - 1 in
          let placement = min cm.Comm.placement_level level in
          let instances = st.counts.(placement) in
          (* message size: product of measured average trips of the
             crossed loops over which the message aggregates, times the
             shift-boundary scale *)
          let loops = Nest.enclosing_loops nest sid in
          let elems =
            List.fold_left
              (fun acc (li : Nest.loop_info) ->
                let lv = li.Nest.level in
                if
                  lv > placement && lv <= level
                  && List.mem li.Nest.loop.index cm.Comm.agg_vars
                  && st.counts.(lv - 1) > 0
                then
                  acc
                  *. (float_of_int st.counts.(lv)
                     /. float_of_int st.counts.(lv - 1))
                else acc)
              (float_of_int cm.Comm.scale)
              loops
          in
          let elems = max 1 (int_of_float (Float.round elems)) in
          let cm' =
            { cm with Comm.instances; elems_per_instance = elems }
          in
          comm_time := !comm_time +. Comm.cost model ~nprocs cm';
          comm_messages := !comm_messages + instances;
          comm_elems := !comm_elems + (instances * elems))
    comms_to_price;
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
      mem_elems_max = Hpf_mapping.Layout.max_local_elems env;
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
