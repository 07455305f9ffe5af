(** Per-processor SPMD execution of the lowered IR — the correctness
    cross-check for the compilation.

    This is an {e executor} of {!Phpf_ir.Sir.program}: ownership chains,
    computation-partitioning guards, communication destinations,
    aggregation plans and reduction combine lines were all resolved at
    lowering time ({!Phpf_core.Lower_spmd}); the only work left here is
    evaluating the subscript expressions embedded in IR coordinates
    against the lockstep reference memory ({!Concrete}) and moving the
    values.

    Every processor gets its own full-size shadow memory, but only writes
    to it when the materialized [computes] predicate selects it, and only
    {e sees} remote values when a lowered transfer op moves them.  A
    reference memory runs in lockstep and provides control-flow decisions
    and subscript addresses (the guards and consumer rules are supposed
    to make these locally available; the final validation catches them if
    they are not).

    After the run, {!validate} replays the lowered validation plan:
    every processor's copy of each array element {e it owns} must equal
    the reference value — a missing or misplaced communication, or a
    wrong guard, makes some owner compute with stale operands and fail
    the check. *)

open Hpf_lang
open Hpf_mapping
open Phpf_core
module Sir = Phpf_ir.Sir

type t = {
  sir : Sir.program;  (** the lowered program being executed *)
  aggregate : bool;  (** transport mode: one packet per block or element *)
  mutable reference : Memory.t;  (** lockstep reference memory *)
  procs : Memory.t array;  (** one shadow memory per processor *)
  mutable transfers : int;  (** elements copied between processors *)
  runtime : Recover.t;
      (** message runtime: reliable delivery, fault recovery *)
}

(* Does any pid of [set] satisfy [f]?  Short-circuiting. *)
let set_exists (f : int -> bool) (set : Pid_set.t) : bool =
  let exception Found in
  try
    Pid_set.iter (fun p -> if f p then raise Found) set;
    false
  with Found -> true

(* --- per-(src, dst) element buffers ------------------------------- *)

(* Ordered accumulation of element transfers, flushed as one
   {!Msg.Block} per pair in the aggregated transport: one sequence
   number, one checksum, one startup latency for a loop's worth of
   elements. *)
type buffers = {
  tbl : (int * int, (int list * Value.t) list ref) Hashtbl.t;
  mutable order : (int * int) list;  (** first-touch order, reversed *)
}

let buffers_create () : buffers = { tbl = Hashtbl.create 16; order = [] }

let buffers_add (b : buffers) ~src ~dst entry =
  let key = (src, dst) in
  match Hashtbl.find_opt b.tbl key with
  | Some l -> l := entry :: !l
  | None ->
      Hashtbl.replace b.tbl key (ref [ entry ]);
      b.order <- key :: b.order

(* Flush every pair's buffer as a single packet, or — in the
   per-element transport mode — each entry as its own single-element
   packet at the same program point.  A one-element buffer keeps the
   single-element packet format either way. *)
let buffers_flush (st : t) ~(scalar_base : bool) ~(base : string)
    (b : buffers) =
  let single ~src ~dst (idx, v) =
    Recover.transmit st.runtime ~src ~dst
      (if scalar_base then Msg.Scalar { var = base; value = v }
       else Msg.Elem { base; index = idx; value = v })
  in
  List.iter
    (fun ((src, dst) as key) ->
      match List.rev !(Hashtbl.find b.tbl key) with
      | _ :: _ :: _ as entries when st.aggregate ->
          Recover.transmit st.runtime ~src ~dst
            (Msg.Block
               {
                 base;
                 indices = List.map fst entries;
                 values = List.map snd entries;
               })
      | entries -> List.iter (single ~src ~dst) entries)
    (List.rev b.order)

(* --- lowered transfer ops ------------------------------------------ *)

(* One scalar or element per statement instance, from its owner line to
   the destinations. *)
let elem_transfer (st : t) (m_ref : Memory.t) (data : Sir.xdata)
    (dests : Pid_set.t) =
  let grid = st.sir.Sir.grid in
  match data with
  | Sir.X_scalar { var; owner } -> (
      match Pid_set.first (Concrete.place_set grid m_ref owner) with
      | None -> ()
      | Some src ->
          let v = Memory.get_scalar st.procs.(src) var in
          let payload = Msg.Scalar { var; value = v } in
          Pid_set.iter
            (fun p ->
              if p <> src then begin
                Recover.transmit st.runtime ~src ~dst:p payload;
                st.transfers <- st.transfers + 1
              end)
            dests)
  | Sir.X_elem { base; subs; owner } -> (
      match Pid_set.first (Concrete.place_set grid m_ref owner) with
      | None -> ()
      | Some src ->
          let idx = List.map (fun e -> Eval.int_expr m_ref e) subs in
          let v = Memory.get_elem st.procs.(src) base idx in
          let payload = Msg.Elem { base; index = idx; value = v } in
          Pid_set.iter
            (fun p ->
              if p <> src then begin
                Recover.transmit st.runtime ~src ~dst:p payload;
                st.transfers <- st.transfers + 1
              end)
            dests)

(* An unsubscripted array actual: every element travels from its
   directive owner to the destinations. *)
let whole_transfer (st : t) (m_ref : Memory.t) ~(base : string)
    (owners : Sir.eplace) (dests : Pid_set.t) =
  let grid = st.sir.Sir.grid in
  let bufs = buffers_create () in
  Memory.iter_elems m_ref base (fun idx _ ->
      match
        Pid_set.first (Concrete.eplace_set grid owners (Array.of_list idx))
      with
      | None -> ()
      | Some src ->
          let v = Memory.get_elem st.procs.(src) base idx in
          Pid_set.iter
            (fun p ->
              if p <> src then begin
                st.transfers <- st.transfers + 1;
                buffers_add bufs ~src ~dst:p (idx, v)
              end)
            dests);
  buffers_flush st ~scalar_base:false ~base bufs

(* Ship one placement instance of a block transfer: walk the crossed
   region exactly as {!Seq_interp} would (bounds evaluated at entry,
   index set per iteration, reference-memory addressing), replaying the
   per-element transfer logic into buffers, then flush one block per
   (src, dst) pair.  The crossed indices are borrowed from the reference
   memory and restored afterwards, so the surrounding execution never
   observes the lookahead. *)
let block_transfer (st : t) (m_ref : Memory.t) ~(data : Sir.xdata)
    ~(dests : Sir.dests) ~(crossed : Sir.loop_desc list) =
  let grid = st.sir.Sir.grid in
  let base, owner, scalar_base =
    match data with
    | Sir.X_scalar { var; owner } -> (var, owner, true)
    | Sir.X_elem { base; owner; _ } -> (base, owner, false)
  in
  let bufs = buffers_create () in
  let emit () =
    match Pid_set.first (Concrete.place_set grid m_ref owner) with
    | None -> ()
    | Some src ->
        let entry =
          match data with
          | Sir.X_scalar { var; _ } ->
              ([], Memory.get_scalar st.procs.(src) var)
          | Sir.X_elem { base; subs; _ } ->
              let idx = List.map (fun e -> Eval.int_expr m_ref e) subs in
              (idx, Memory.get_elem st.procs.(src) base idx)
        in
        let ds =
          match dests with
          | Sir.D_all -> Pid_set.all grid
          | Sir.D_pred p -> Concrete.pred_set grid m_ref p
        in
        Pid_set.iter
          (fun p ->
            if p <> src then begin
              st.transfers <- st.transfers + 1;
              buffers_add bufs ~src ~dst:p entry
            end)
          ds
  in
  (* A crossed index introduced by the merge pass is fresh — not a
     source loop index — so it may be unbound in memory: save what is
     there (if anything) and restore to exactly that. *)
  let saved =
    List.map
      (fun (l : Sir.loop_desc) ->
        (l.Sir.index, Hashtbl.find_opt m_ref.Memory.scalars l.Sir.index))
      crossed
  in
  let rec walk = function
    | [] -> emit ()
    | (l : Sir.loop_desc) :: rest ->
        let lo = Eval.int_expr m_ref l.Sir.lo in
        let hi = Eval.int_expr m_ref l.Sir.hi in
        let step = Eval.int_expr m_ref l.Sir.step in
        if step = 0 then Memory.rerr "zero loop step";
        let i = ref lo in
        while if step > 0 then !i <= hi else !i >= hi do
          Memory.set_scalar m_ref l.Sir.index (Value.I !i);
          walk rest;
          i := !i + step
        done
  in
  walk crossed;
  List.iter
    (fun (v, x) ->
      match x with
      | Some x -> Memory.set_scalar m_ref v x
      | None -> Hashtbl.remove m_ref.Memory.scalars v)
    saved;
  buffers_flush st ~scalar_base ~base bufs

(** Execute the lowered program in SPMD fashion.  [init] seeds the
    reference memory and every processor memory identically (initial
    data is assumed globally available, as the paper's benchmarks read
    their input on every node).

    The program is the compiler's recorded lowering unless [sir]
    overrides it; [aggregate] only picks the transport of its block
    transfers. *)
let run ?(init : (Memory.t -> unit) option) ?(faults = Fault.none)
    ?recover_config ?(aggregate = true)
    ?(fuel = Seq_interp.default_fuel) ?(sir : Sir.program option)
    (c : Compiler.compiled) : t =
  let sir = match sir with Some s -> s | None -> Compiler.sir_exn c in
  let grid = sir.Sir.grid in
  let nprocs = sir.Sir.nprocs in
  let reference = Memory.create c.Compiler.prog in
  let procs = Array.init nprocs (fun _ -> Memory.create c.Compiler.prog) in
  (match init with
  | Some f ->
      f reference;
      Array.iter f procs
  | None -> ());
  (* the supervisor either drives plan-based localized failover (plan
     attached by the recovery-plan pass, [init] re-applied to rebuilt
     memories) or snapshots the post-init state as checkpoint zero *)
  let runtime =
    Recover.create ?config:recover_config ~faults ?plan:sir.Sir.recovery
      ?init procs c.Compiler.prog
  in
  let st =
    { sir; aggregate; reference; procs; transfers = 0; runtime }
  in
  (* per-op block-transfer state: placement instance already shipped *)
  let last_prefix : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  (* reduction dirty flags: combine lazily on first consumption *)
  let dirty : (string, bool) Hashtbl.t = Hashtbl.create 4 in
  let combine (i : int) =
    let r = sir.Sir.reductions.(i) in
    if Hashtbl.find_opt dirty r.Sir.rvar = Some true then begin
      Hashtbl.replace dirty r.Sir.rvar false;
      List.iter
        (fun members ->
          let values =
            List.map
              (fun p -> (p, Memory.get_scalar st.procs.(p) r.Sir.rvar))
              members
          in
          let better (p1, v1) (p2, v2) =
            let f1 = Value.to_float v1 and f2 = Value.to_float v2 in
            match r.Sir.rop with
            | Hpf_analysis.Reduction.Rmax ->
                if f2 > f1 then (p2, v2) else (p1, v1)
            | Hpf_analysis.Reduction.Rmin ->
                if f2 < f1 then (p2, v2) else (p1, v1)
            | Hpf_analysis.Reduction.Rsum | Hpf_analysis.Reduction.Rprod ->
                (p1, v1)
          in
          let winner, total_v =
            match r.Sir.rop with
            | Hpf_analysis.Reduction.Rsum ->
                let s =
                  List.fold_left
                    (fun acc (_, v) -> acc +. Value.to_float v)
                    0.0 values
                in
                (List.hd members, Value.R s)
            | Hpf_analysis.Reduction.Rprod ->
                let s =
                  List.fold_left
                    (fun acc (_, v) -> acc *. Value.to_float v)
                    1.0 values
                in
                (List.hd members, Value.R s)
            | Hpf_analysis.Reduction.Rmax | Hpf_analysis.Reduction.Rmin ->
                List.fold_left better (List.hd values) (List.tl values)
          in
          st.transfers <- st.transfers + List.length members - 1;
          List.iter
            (fun p ->
              Recover.write st.runtime p
                (Msg.Scalar { var = r.Sir.rvar; value = total_v });
              (* maxloc/minloc: the location companions follow the
                 winning processor's values *)
              List.iter
                (fun lv ->
                  Recover.write st.runtime p
                    (Msg.Scalar
                       {
                         var = lv;
                         value = Memory.get_scalar st.procs.(winner) lv;
                       }))
                r.Sir.loc_vars)
            members)
        r.Sir.lines
    end
  in
  let comm_op (m_ref : Memory.t) (op : Sir.comm_op) =
    let dest_set (d : Sir.dests) =
      match d with
      | Sir.D_all -> Pid_set.all grid
      | Sir.D_pred p -> Concrete.pred_set grid m_ref p
    in
    match op.Sir.xfer with
    | Sir.Reduce_xfer ->
        (* combining is performed by the lazy reduction logic, not by a
           value copy *)
        ()
    | Sir.Elem_xfer { data; dests } ->
        elem_transfer st m_ref data (dest_set dests)
    | Sir.Whole_xfer { base; owners; dests } ->
        whole_transfer st m_ref ~base owners (dest_set dests)
    | Sir.Block_xfer { data; dests; crossed; prefix_vars } ->
        (* ship the whole region once, at the first statement instance
           of each placement instance *)
        let prefix =
          List.map
            (fun v -> Value.to_int (Memory.get_scalar m_ref v))
            prefix_vars
        in
        if Hashtbl.find_opt last_prefix op.Sir.uid <> Some prefix then begin
          Hashtbl.replace last_prefix op.Sir.uid prefix;
          block_transfer st m_ref ~data ~dests ~crossed
        end
  in
  let on_stmt (s : Ast.stmt) (m_ref : Memory.t) =
    (* statement boundary: checkpointing and processor-level faults;
       the sid arms the statement's plan entries once entered *)
    Recover.stmt_boundary ~sid:s.Ast.sid st.runtime;
    match Sir.stmt_ops sir s.Ast.sid with
    | None -> ()
    | Some ops ->
        (* 1. loop indices stay in lockstep on every processor (the SPMD
           loop structure materializes them locally) *)
        List.iter
          (fun v ->
            let x = Memory.get_scalar m_ref v in
            Array.iteri
              (fun p _ ->
                Recover.write st.runtime p
                  (Msg.Scalar { var = v; value = x }))
              st.procs)
          ops.Sir.mirror;
        (* 2. reduction bookkeeping: combine partials before any
           consumer reads the accumulator; mark dirty on accumulation *)
        List.iter
          (function
            | Sir.R_mark var -> Hashtbl.replace dirty var true
            | Sir.R_combine i -> combine i)
          ops.Sir.red_steps;
        (* 3. the communications attached to this statement *)
        List.iter (comm_op m_ref) ops.Sir.comms;
        (* 4. execute on the processors the computes predicate selects *)
        (match ops.Sir.exec with
        | Sir.Control _ ->
            (* control decisions follow the lockstep reference *)
            ()
        | Sir.Guarded_assign { lhs; rhs; computes } ->
            let execs = Concrete.pred_set grid m_ref computes in
            Pid_set.iter
              (fun p ->
                let mp = st.procs.(p) in
                let v = Eval.expr mp rhs in
                match lhs with
                | Ast.LVar x ->
                    Recover.write st.runtime p
                      (Msg.Scalar { var = x; value = v })
                | Ast.LArr (a, subs) ->
                    (* addresses from the reference memory: subscript
                       values are guaranteed available by the consumer
                       rules *)
                    let idx =
                      List.map (fun e -> Eval.int_expr m_ref e) subs
                    in
                    Recover.write st.runtime p
                      (Msg.Elem { base = a; index = idx; value = v }))
              execs
        | Sir.Loop_head { index; lo } ->
            let i0 = Eval.int_expr m_ref lo in
            Array.iteri
              (fun p _ ->
                Recover.write st.runtime p
                  (Msg.Scalar { var = index; value = Value.I i0 }))
              st.procs)
  in
  let config = { Seq_interp.fuel; on_stmt = Some on_stmt } in
  st.reference <- Seq_interp.run ~config ?init sir.Sir.source;
  st

(** The message runtime's fault-campaign report for a finished run. *)
let fault_report (st : t) : Recover.report = Recover.report st.runtime

(** Measured network traffic of a finished run: packets, blocks,
    elements, wire bytes (retransmits included). *)
let comm_stats (st : t) : Msg.stats = Recover.net_stats st.runtime

(** A divergence between a processor's owned copy and the reference. *)
type mismatch = {
  pid : int;
  array : string;
  index : int list;
  got : Value.t;
  expected : Value.t;
}

let pp_mismatch ppf (m : mismatch) =
  Fmt.pf ppf "proc %d: %s(%a) = %a, expected %a" m.pid m.array
    Fmt.(list ~sep:(any ", ") int)
    m.index Value.pp m.got Value.pp m.expected

(** Replay the lowered validation plan: check every processor's owned
    elements of every distributed array against the reference memory.
    Returns the mismatches (empty = the SPMD execution is consistent).

    Fully privatized arrays were lowered to [V_skip]: the [NEW] clause
    declares their values dead after the loop.  A {e partially}
    privatized array ([V_line]) is still partitioned along its
    non-privatized grid dimensions: at least one processor of the
    element's owner line (privatized dimensions widened) must hold the
    reference value. *)
let validate ?(max_mismatches = 10) (st : t) : mismatch list =
  let grid = st.sir.Sir.grid in
  let out = ref [] in
  let count = ref 0 in
  let record pid array index got expected =
    incr count;
    out := { pid; array; index; got; expected } :: !out
  in
  List.iter
    (fun (v : Sir.vcheck) ->
      if !count < max_mismatches then
        match v with
        | Sir.V_skip _ -> ()
        | Sir.V_owned (a, ep) ->
            Memory.iter_elems st.reference a (fun idx expected ->
                if !count < max_mismatches then
                  Pid_set.iter
                    (fun pid ->
                      if !count < max_mismatches then begin
                        let got = Memory.get_elem st.procs.(pid) a idx in
                        if not (Value.close got expected) then
                          record pid a idx got expected
                      end)
                    (Concrete.eplace_set grid ep (Array.of_list idx)))
        | Sir.V_line (a, ep) ->
            Memory.iter_elems st.reference a (fun idx expected ->
                if !count < max_mismatches then begin
                  let line =
                    Concrete.eplace_set grid ep (Array.of_list idx)
                  in
                  let holds pid =
                    Value.close
                      (Memory.get_elem st.procs.(pid) a idx)
                      expected
                  in
                  match Pid_set.first line with
                  | None -> ()
                  | Some pid ->
                      if not (set_exists holds line) then
                        record pid a idx
                          (Memory.get_elem st.procs.(pid) a idx)
                          expected
                end))
    st.sir.Sir.validate_plan;
  List.rev !out
