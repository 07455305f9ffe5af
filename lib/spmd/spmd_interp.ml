(** Per-processor SPMD execution of the lowered IR — the correctness
    cross-check for the compilation.

    This is an {e executor} of {!Phpf_ir.Sir.program}: ownership chains,
    computation-partitioning guards, communication destinations,
    aggregation plans and reduction combine lines were all resolved at
    lowering time ({!Phpf_core.Lower_spmd}); the only work left here is
    evaluating the subscript expressions embedded in IR coordinates
    against the lockstep reference memory ({!Concrete}) and moving the
    values.  Each run compiles those expressions, the statements' guards
    and right-hand sides once, against the run's memory layout, into a
    dense table indexed by statement id.

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
  reference : Memory.t;  (** lockstep reference memory *)
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
   elements.  A pair's buffer holds its index vectors flat, [rank]
   subscripts per element, and grows by doubling; it lives for the
   run, so steady-state buffering allocates nothing and only a flushed
   packet copies its elements out. *)
type pair_buf = {
  mutable n : int;  (** elements buffered since the last flush *)
  mutable idx : int array;
  mutable vals : Value.t array;
}

type buffers = {
  pairs : (int, pair_buf) Hashtbl.t;  (** keyed [src * nprocs + dst] *)
  mutable order : int array;  (** pairs touched since the last flush *)
  mutable touched : int;
  mutable src : int;  (** the element being routed: its source, *)
  mutable index : int array;  (** index vector (copied when buffered) *)
  mutable value : Value.t;  (** and value *)
}

let buffers_create () : buffers =
  {
    pairs = Hashtbl.create 16;
    order = Array.make 16 0;
    touched = 0;
    src = 0;
    index = [||];
    value = Value.I 0;
  }

(* Append the element being routed to pair [key]'s buffer. *)
let buffers_add (b : buffers) ~(key : int) =
  let buf =
    match Hashtbl.find b.pairs key with
    | buf -> buf
    | exception Not_found ->
        let buf = { n = 0; idx = [||]; vals = [||] } in
        Hashtbl.add b.pairs key buf;
        buf
  in
  if buf.n = 0 then begin
    if b.touched = Array.length b.order then begin
      let order = Array.make (2 * b.touched) 0 in
      Array.blit b.order 0 order 0 b.touched;
      b.order <- order
    end;
    b.order.(b.touched) <- key;
    b.touched <- b.touched + 1
  end;
  let n = buf.n and rank = Array.length b.index in
  if n = Array.length buf.vals then begin
    let vals = Array.make (max 8 (2 * n)) b.value in
    Array.blit buf.vals 0 vals 0 n;
    buf.vals <- vals
  end;
  if (n + 1) * rank > Array.length buf.idx then begin
    let idx = Array.make (Array.length buf.vals * rank) 0 in
    Array.blit buf.idx 0 idx 0 (n * rank);
    buf.idx <- idx
  end;
  Array.blit b.index 0 buf.idx (n * rank) rank;
  buf.vals.(n) <- b.value;
  buf.n <- n + 1

(* Flush every touched pair's buffer as a single packet, or — in the
   per-element transport mode — each element as its own single-element
   packet at the same program point.  A one-element buffer keeps the
   single-element packet format either way.  [addr] is [base]'s cell,
   or its slot when [rank = 0]. *)
let buffers_flush (st : t) (b : buffers) ~(base : string) ~(addr : int)
    ~(rank : int) =
  let nprocs = st.sir.Sir.nprocs in
  for k = 0 to b.touched - 1 do
    let key = b.order.(k) in
    let buf = Hashtbl.find b.pairs key in
    let src = key / nprocs and dst = key mod nprocs in
    if st.aggregate && buf.n >= 2 then
      Recover.transmit st.runtime ~src ~dst
        (Msg.Block
           {
             base;
             addr;
             rank;
             indices = Array.sub buf.idx 0 (buf.n * rank);
             values = Array.sub buf.vals 0 buf.n;
           })
    else
      for e = 0 to buf.n - 1 do
        let value = buf.vals.(e) in
        Recover.transmit st.runtime ~src ~dst
          (if rank = 0 then Msg.Scalar { var = base; slot = addr; value }
           else
             Msg.Elem
               {
                 base;
                 cell = addr;
                 index = Array.sub buf.idx (e * rank) rank;
                 value;
               })
      done;
    buf.n <- 0
  done;
  b.touched <- 0

(* Buffer the element being routed for destination [p], unless [p] is
   its source. *)
let route (st : t) (b : buffers) (p : int) : unit =
  if p <> b.src then begin
    st.transfers <- st.transfers + 1;
    buffers_add b ~key:((b.src * st.sir.Sir.nprocs) + p)
  end

(* --- the lowered program, resolved ---------------------------------- *)

(* Every name and guard of the lowered program is compiled once per run
   against the run's memory layout: statement ops live in a dense table
   indexed by statement id, transfer ops carry their own state. *)

(* The moved datum of a transfer: where it lives, the index vector it
   travels with and its source (lowest pid of its owner line). *)
type datum =
  | D_scalar of { var : string; slot : int; src : int Eval.code }
  | D_elem of {
      base : string;
      cell : int option;
      rank : int;  (** subscripts *)
      idx : int array Eval.code;
      src : int Eval.code;
    }

type crossed = {
  index : int;  (** slot of the crossed index *)
  lo : int Eval.code;
  hi : int Eval.code;
  step : int Eval.code;
}

type op =
  | Op_none  (** a reduction collective: the combine logic moves data *)
  | Op_elem of { data : datum; dests : Pid_set.t Eval.code }
  | Op_whole of {
      base : string;
      cell : int option;
      owners : int array -> Pid_set.t;
      dests : Pid_set.t Eval.code;
    }
  | Op_block of {
      data : datum;
      dests : Pid_set.t Eval.code;
      crossed : crossed list;
      prefix : int array;  (** slots of the prefix indices *)
      current : int array;  (** this instance's prefix *)
      last : int array;  (** prefix of the last shipped instance *)
      mutable shipped : bool;  (** [last] holds a prefix *)
    }

type exec =
  | X_control
  | X_assign of {
      computes : Pid_set.t Eval.code;
      write : int -> unit;
          (** evaluate the right-hand side on a processor and write it
              there; built once per run *)
    }
  | X_loop_head of { slot : int; lo : int Eval.code }

type red_step = Mark of int  (** slot *) | Combine of int  (** reduction *)

type stmt_rec = {
  mirror : int array;  (** slots of the enclosing indices *)
  red_steps : red_step array;
  comms : op array;
  exec : exec;
}

let slot_exn (l : Memory.layout) (v : string) : int =
  match Memory.slot l v with
  | Some i -> i
  | None -> invalid_arg ("Spmd_interp: no slot for " ^ v)

let resolve_datum l grid : Sir.xdata -> datum = function
  | Sir.X_scalar { var; owner } ->
      D_scalar
        { var; slot = slot_exn l var; src = Concrete.place_first l grid owner }
  | Sir.X_elem { base; subs; owner } ->
      D_elem
        {
          base;
          cell = Memory.cell l base;
          rank = List.length subs;
          idx = Eval.index l subs;
          src = Concrete.place_first l grid owner;
        }

let resolve_dests l grid : Sir.dests -> Pid_set.t Eval.code = function
  | Sir.D_all ->
      let all = Pid_set.all grid in
      fun _ -> all
  | Sir.D_pred p -> Concrete.pred l grid p

let resolve_op l grid (op : Sir.comm_op) : op =
  match op.Sir.xfer with
  | Sir.Reduce_xfer -> Op_none
  | Sir.Elem_xfer { data; dests } ->
      Op_elem
        { data = resolve_datum l grid data; dests = resolve_dests l grid dests }
  | Sir.Whole_xfer { base; owners; dests } ->
      Op_whole
        {
          base;
          cell = Memory.cell l base;
          owners = Concrete.eplace_set grid owners;
          dests = resolve_dests l grid dests;
        }
  | Sir.Block_xfer { data; dests; crossed; prefix_vars } ->
      let n = List.length prefix_vars in
      Op_block
        {
          data = resolve_datum l grid data;
          dests = resolve_dests l grid dests;
          crossed =
            List.map
              (fun (lp : Sir.loop_desc) ->
                {
                  index = slot_exn l lp.Sir.index;
                  lo = Eval.compile_int l lp.Sir.lo;
                  hi = Eval.compile_int l lp.Sir.hi;
                  step = Eval.compile_int l lp.Sir.step;
                })
              crossed;
          prefix = Array.of_list (List.map (slot_exn l) prefix_vars);
          current = Array.make n 0;
          last = Array.make n 0;
          shipped = false;
        }

(* A guarded assignment's per-processor write: the right-hand side on
   the processor's own memory, the address from the reference memory
   (subscript values are guaranteed available by the consumer rules). *)
let resolve_write (st : t) l : Ast.lhs -> Ast.expr -> int -> unit =
 fun lhs rhs ->
  let rhs = Eval.compile l rhs in
  match lhs with
  | Ast.LVar x ->
      let slot = slot_exn l x in
      fun p -> Recover.write_scalar st.runtime p ~slot (rhs st.procs.(p))
  | Ast.LArr (base, subs) -> (
      let idx = Eval.index l subs in
      match Memory.cell l base with
      | Some cell ->
          fun p ->
            let v = rhs st.procs.(p) in
            Recover.write_elem st.runtime p ~cell (idx st.reference) v
      | None ->
          fun p ->
            ignore (rhs st.procs.(p));
            ignore (idx st.reference);
            Memory.rerr "write of unbound array %s" base)

let resolve_stmt (st : t) l grid (o : Sir.stmt_ops) : stmt_rec =
  {
    mirror = Array.of_list (List.map (slot_exn l) o.Sir.mirror);
    red_steps =
      Array.of_list
        (List.map
           (function
             | Sir.R_mark var -> Mark (slot_exn l var)
             | Sir.R_combine i -> Combine i)
           o.Sir.red_steps);
    comms = Array.of_list (List.map (resolve_op l grid) o.Sir.comms);
    exec =
      (match o.Sir.exec with
      | Sir.Control _ -> X_control
      | Sir.Guarded_assign { lhs; rhs; computes } ->
          X_assign
            {
              computes = Concrete.pred l grid computes;
              write = resolve_write st l lhs rhs;
            }
      | Sir.Loop_head { index; lo } ->
          X_loop_head { slot = slot_exn l index; lo = Eval.compile_int l lo });
  }

(* The dense per-statement table of a run: [table.(sid)]. *)
let resolve (st : t) (l : Memory.layout) : stmt_rec option array =
  let sir = st.sir in
  let max_sid = ref 0 in
  Ast.iter_program (fun s -> max_sid := max !max_sid s.Ast.sid) sir.Sir.source;
  List.iter
    (fun (o : Sir.stmt_ops) -> max_sid := max !max_sid o.Sir.sid)
    (Sir.all_stmt_ops sir);
  let table = Array.make (!max_sid + 1) None in
  List.iter
    (fun (o : Sir.stmt_ops) ->
      table.(o.Sir.sid) <- Some (resolve_stmt st l sir.Sir.grid o))
    (Sir.all_stmt_ops sir);
  table

(* --- lowered transfer ops ------------------------------------------ *)

(* The index vector a datum travels with (empty for a scalar), then its
   value on processor [src]. *)
let datum_index (m_ref : Memory.t) : datum -> int array = function
  | D_scalar _ -> [||]
  | D_elem { idx; _ } -> idx m_ref

let datum_read (st : t) (d : datum) (src : int) (idx : int array) : Value.t =
  match d with
  | D_scalar { slot; _ } -> Memory.get_slot st.procs.(src) slot
  | D_elem { base; cell; _ } -> (
      match cell with
      | Some ci -> Memory.read_elem st.procs.(src) ci idx
      | None -> Memory.rerr "read of unbound array %s" base)

(* One scalar or element per statement instance, from its owner line to
   the destinations. *)
let elem_transfer (st : t) (m_ref : Memory.t) (data : datum)
    (dests : Pid_set.t) =
  let src =
    match data with D_scalar { src; _ } | D_elem { src; _ } -> src m_ref
  in
  let idx = datum_index m_ref data in
  let value = datum_read st data src idx in
  let payload =
    match data with
    | D_scalar { var; slot; _ } -> Msg.Scalar { var; slot; value }
    | D_elem { base; cell; _ } ->
        Msg.Elem { base; cell = Option.get cell; index = Array.copy idx; value }
  in
  Pid_set.iter
    (fun p ->
      if p <> src then begin
        Recover.transmit st.runtime ~src ~dst:p payload;
        st.transfers <- st.transfers + 1
      end)
    dests

(* An unsubscripted array actual: every element travels from its
   directive owner to the destinations. *)
let whole_transfer (st : t) (bufs : buffers) (m_ref : Memory.t)
    ~(base : string) ~(cell : int option) ~owners (dests : Pid_set.t) =
  let ci =
    match cell with Some ci -> ci | None -> Memory.rerr "unknown array %s" base
  in
  let c = m_ref.Memory.cells.(ci) in
  let route = route st bufs in
  Memory.iter_cell c (fun idx off ->
      match Pid_set.first (owners idx) with
      | None -> ()
      | Some src ->
          bufs.src <- src;
          bufs.index <- idx;
          bufs.value <- Memory.read_off st.procs.(src).Memory.cells.(ci) off;
          Pid_set.iter route dests);
  buffers_flush st bufs ~base ~addr:ci ~rank:(Memory.cell_rank c)

(* Ship one placement instance of a block transfer: walk the crossed
   region exactly as {!Seq_interp} would (bounds evaluated at entry,
   index set per iteration, reference-memory addressing), replaying the
   per-element transfer logic into buffers, then flush one block per
   (src, dst) pair.  The crossed indices are borrowed from the reference
   memory and restored afterwards, so the surrounding execution never
   observes the lookahead. *)
let block_transfer (st : t) (bufs : buffers) (m_ref : Memory.t)
    ~(data : datum) ~(dests : Pid_set.t Eval.code) ~(crossed : crossed list) =
  let route = route st bufs in
  let emit () =
    let src =
      match data with D_scalar { src; _ } | D_elem { src; _ } -> src m_ref
    in
    let idx = datum_index m_ref data in
    bufs.src <- src;
    bufs.index <- idx;
    bufs.value <- datum_read st data src idx;
    Pid_set.iter route (dests m_ref)
  in
  (* A crossed index introduced by the merge pass is fresh — not a
     source loop index — so it may be unbound in memory: save what is
     there (if anything) and restore to exactly that. *)
  let saved =
    List.map (fun (c : crossed) -> (c.index, Memory.find_slot m_ref c.index)) crossed
  in
  let rec walk = function
    | [] -> emit ()
    | (c : crossed) :: rest ->
        let lo = c.lo m_ref in
        let hi = c.hi m_ref in
        let step = c.step m_ref in
        if step = 0 then Memory.rerr "zero loop step";
        let i = ref lo in
        while if step > 0 then !i <= hi else !i >= hi do
          Memory.set_slot m_ref c.index (Value.I !i);
          walk rest;
          i := !i + step
        done
  in
  walk crossed;
  List.iter
    (fun (slot, x) ->
      match x with
      | Some x -> Memory.set_slot m_ref slot x
      | None -> Memory.unbind_slot m_ref slot)
    saved;
  match data with
  | D_scalar { var; slot; _ } ->
      buffers_flush st bufs ~base:var ~addr:slot ~rank:0
  | D_elem { base; cell = Some cell; rank; _ } ->
      buffers_flush st bufs ~base ~addr:cell ~rank
  | D_elem { cell = None; _ } ->
      (* an unbound array fails its first read: nothing was buffered *)
      ()

(* Fold a reduction's partials along each combine line and write the
   total (and, for maxloc/minloc, the winner's location companions)
   back to every member. *)
let combine_line (st : t) (r : Sir.reduce) ~rslot ~loc_slots members =
  let values =
    List.map (fun p -> (p, Memory.get_slot st.procs.(p) rslot)) members
  in
  let better (p1, v1) (p2, v2) =
    let f1 = Value.to_float v1 and f2 = Value.to_float v2 in
    match r.Sir.rop with
    | Hpf_analysis.Reduction.Rmax -> if f2 > f1 then (p2, v2) else (p1, v1)
    | Hpf_analysis.Reduction.Rmin -> if f2 < f1 then (p2, v2) else (p1, v1)
    | Hpf_analysis.Reduction.Rsum | Hpf_analysis.Reduction.Rprod -> (p1, v1)
  in
  let winner, total_v =
    match r.Sir.rop with
    | Hpf_analysis.Reduction.Rsum ->
        let s =
          List.fold_left (fun acc (_, v) -> acc +. Value.to_float v) 0.0 values
        in
        (List.hd members, Value.R s)
    | Hpf_analysis.Reduction.Rprod ->
        let s =
          List.fold_left (fun acc (_, v) -> acc *. Value.to_float v) 1.0 values
        in
        (List.hd members, Value.R s)
    | Hpf_analysis.Reduction.Rmax | Hpf_analysis.Reduction.Rmin ->
        List.fold_left better (List.hd values) (List.tl values)
  in
  st.transfers <- st.transfers + List.length members - 1;
  List.iter
    (fun p ->
      Recover.write_scalar st.runtime p ~slot:rslot total_v;
      (* maxloc/minloc: the location companions follow the winning
         processor's values *)
      List.iter
        (fun lslot ->
          Recover.write_scalar st.runtime p ~slot:lslot
            (Memory.get_slot st.procs.(winner) lslot))
        loc_slots)
    members

(* Has the block's prefix moved since it last shipped? *)
let prefix_moved (current : int array) (last : int array) : bool =
  let moved = ref false in
  for k = 0 to Array.length current - 1 do
    if current.(k) <> last.(k) then moved := true
  done;
  !moved

(** Execute the lowered program in SPMD fashion.  [init] seeds the
    reference memory, and every processor memory starts as a copy of it
    (initial data is assumed globally available, as the paper's
    benchmarks read their input on every node).

    The program is the compiler's recorded lowering unless [sir]
    overrides it; [aggregate] only picks the transport of its block
    transfers. *)
let run ?(init : (Memory.t -> unit) option) ?(faults = Fault.none)
    ?recover_config ?(aggregate = true)
    ?(fuel = Seq_interp.default_fuel) ?(sir : Sir.program option)
    (c : Compiler.compiled) : t =
  let sir = match sir with Some s -> s | None -> Compiler.sir_exn c in
  let nprocs = sir.Sir.nprocs in
  (* one layout for the reference, every processor and every memory a
     recovery rebuilds *)
  let layout = Concrete.layout sir in
  let reference = Memory.create_in layout in
  Option.iter (fun f -> f reference) init;
  (* seeded once: [init] is deterministic, so copying the seeded cells
     gives every processor what applying it again would *)
  let procs = Array.init nprocs (fun _ -> Memory.copy reference) in
  (* the supervisor either drives plan-based localized failover (plan
     attached by the recovery-plan pass, [init] re-applied to rebuilt
     memories) or snapshots the post-init state as checkpoint zero *)
  let runtime =
    Recover.create ?config:recover_config ~faults ?plan:sir.Sir.recovery
      ?init procs c.Compiler.prog
  in
  let st = { sir; aggregate; reference; procs; transfers = 0; runtime } in
  let table = resolve st layout in
  let bufs = buffers_create () in
  (* reduction dirty flags, per accumulator slot: combine lazily on
     first consumption *)
  let dirty = Array.make (Memory.slot_count layout) false in
  let reductions =
    Array.map
      (fun (r : Sir.reduce) ->
        (r, slot_exn layout r.Sir.rvar, List.map (slot_exn layout) r.Sir.loc_vars))
      sir.Sir.reductions
  in
  let combine (i : int) =
    let r, rslot, loc_slots = reductions.(i) in
    if dirty.(rslot) then begin
      dirty.(rslot) <- false;
      List.iter (combine_line st r ~rslot ~loc_slots) r.Sir.lines
    end
  in
  let comm_op (m_ref : Memory.t) (op : op) =
    match op with
    | Op_none -> ()
    | Op_elem { data; dests } -> elem_transfer st m_ref data (dests m_ref)
    | Op_whole { base; cell; owners; dests } ->
        whole_transfer st bufs m_ref ~base ~cell ~owners (dests m_ref)
    | Op_block ({ data; dests; crossed; prefix; current; last; _ } as b) ->
        (* ship the whole region once, at the first statement instance
           of each placement instance *)
        for k = 0 to Array.length prefix - 1 do
          current.(k) <- Value.to_int (Memory.get_slot m_ref prefix.(k))
        done;
        if (not b.shipped) || prefix_moved current last then begin
          Array.blit current 0 last 0 (Array.length current);
          b.shipped <- true;
          block_transfer st bufs m_ref ~data ~dests ~crossed
        end
  in
  let on_stmt (s : Ast.stmt) (m_ref : Memory.t) =
    (* statement boundary: checkpointing and processor-level faults;
       the sid arms the statement's plan entries once entered *)
    Recover.stmt_boundary ~sid:s.Ast.sid st.runtime;
    match table.(s.Ast.sid) with
    | None -> ()
    | Some r -> (
        (* 1. loop indices stay in lockstep on every processor (the SPMD
           loop structure materializes them locally); a processor that
           already holds the reference's value is skipped *)
        for k = 0 to Array.length r.mirror - 1 do
          let slot = r.mirror.(k) in
          let x = Memory.get_slot m_ref slot in
          for p = 0 to nprocs - 1 do
            Recover.write_scalar st.runtime p ~slot x
          done
        done;
        (* 2. reduction bookkeeping: combine partials before any
           consumer reads the accumulator; mark dirty on accumulation *)
        for k = 0 to Array.length r.red_steps - 1 do
          match r.red_steps.(k) with
          | Mark slot -> dirty.(slot) <- true
          | Combine i -> combine i
        done;
        (* 3. the communications attached to this statement *)
        for k = 0 to Array.length r.comms - 1 do
          comm_op m_ref r.comms.(k)
        done;
        (* 4. execute on the processors the computes predicate selects *)
        match r.exec with
        | X_control ->
            (* control decisions follow the lockstep reference *)
            ()
        | X_assign { computes; write } -> Pid_set.iter write (computes m_ref)
        | X_loop_head { slot; lo } ->
            let i0 = Value.I (lo m_ref) in
            for p = 0 to nprocs - 1 do
              Recover.write_scalar st.runtime p ~slot i0
            done)
  in
  let config = { Seq_interp.fuel; on_stmt = Some on_stmt } in
  Seq_interp.run_in ~config reference sir.Sir.source;
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
            let owners = Concrete.eplace_set grid ep in
            let expected_cell = Memory.array_cell st.reference a in
            let cells = Array.map (fun m -> Memory.array_cell m a) st.procs in
            Memory.iter_cell expected_cell (fun idx off ->
                if !count < max_mismatches then begin
                  let expected = Memory.read_off expected_cell off in
                  Pid_set.iter
                    (fun pid ->
                      if !count < max_mismatches then begin
                        let got = Memory.read_off cells.(pid) off in
                        if not (Value.close got expected) then
                          record pid a (Array.to_list idx) got expected
                      end)
                    (owners idx)
                end)
        | Sir.V_line (a, ep) ->
            let owners = Concrete.eplace_set grid ep in
            let expected_cell = Memory.array_cell st.reference a in
            let cells = Array.map (fun m -> Memory.array_cell m a) st.procs in
            Memory.iter_cell expected_cell (fun idx off ->
                if !count < max_mismatches then begin
                  let expected = Memory.read_off expected_cell off in
                  let line = owners idx in
                  let holds pid =
                    Value.close (Memory.read_off cells.(pid) off) expected
                  in
                  match Pid_set.first line with
                  | None -> ()
                  | Some pid ->
                      if not (set_exists holds line) then
                        record pid a (Array.to_list idx)
                          (Memory.read_off cells.(pid) off)
                          expected
                end))
    st.sir.Sir.validate_plan;
  List.rev !out

let runtime_diags ?fuel_flag (exn : exn) : Diag.t list option =
  match exn with
  | Memory.Runtime_error { loc; sid = _; msg } ->
      Some [ Diag.error ?loc ~code:"E0701" msg ]
  | Seq_interp.Fuel_exhausted { loc; sid = _; budget } ->
      Some
        [
          Diag.errorf ?loc ~code:"E0704"
            "statement-instance budget exhausted after %d instances%s" budget
            (match fuel_flag with
            | Some f -> " (raise it with " ^ f ^ ")"
            | None -> "");
        ]
  | Recover.Unrecoverable ds -> Some ds
  | _ -> None
