(* The closed loop every workload runs: cycles of the same ops until the
   run's time is spent.  A cycle runs in segments — one op each for the
   compile and simulate workloads, one pool batch for serve — and the
   runner times every segment.  A traced run alternates untraced and
   traced cycles: the traced ones give the per-layer metrics, the pair
   gives the tracing overhead under the same host drift. *)

type op = {
  cls : string;  (** class label for the percentile placement report *)
  run : root:int -> bool;
      (** run once; [root] is the op's root span in a traced cycle,
          [-1] otherwise; [false] when the op failed its gate *)
}

(* An op a segment ran: its index in the cycle's op list, its latency,
   its gate verdict and its class. *)
type outcome = { idx : int; ns : int; ok : bool; cls : string }

(* One cycle of a workload.  A segment keeps its id from cycle to
   cycle, whatever the order it runs in, so that its wall time can be
   compared across cycles. *)
type cycle = {
  order : int array;  (** segment ids, in the order this cycle runs them *)
  segment : int -> outcome list;  (** run the segment with this id *)
  finish : seg_ns:int array -> unit;
      (** after the cycle, with each segment's wall time by id (-1 when
          not run) *)
}

type result = {
  ncycles : int;
  traced : bool array;  (** per cycle *)
  lat_ns : int array array;
      (** cycle -> op -> latency; -1 for an op the cycle did not run
          (the last cycle of an untraced run may stop early) *)
  ok : bool array array;
  cls : string array array;  (** cycle -> op -> class *)
  seg_ns : int array array;
      (** cycle -> segment id -> wall time, -1 when not run: the
          cycle's duration, split so that a per-segment median over
          cycles is possible *)
}

(* Per-layer counters of traced cycles, keyed (name, cycle). *)
let counts : (string * int, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  if !Spans.on then begin
    let k = (name, !Spans.cycle) in
    Hashtbl.replace counts k
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts k))
  end

let next_op = ref 0

let shuffle (rng : Random.State.t) (a : 'a array) : unit =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Cycles over independent ops, one op per segment, each cycle in an
   order drawn afresh from the seed, so an op's median over the cycles
   does not depend on which op happened to run before it. *)
let of_ops ~(seed : int) ~(root_name : string) (ops : op array) : traced:bool -> cycle =
  let root_id = Spans.intern root_name in
  let rng = Random.State.make [| seed |] in
  let order = Array.init (Array.length ops) Fun.id in
  fun ~traced ->
    shuffle rng order;
    let segment i =
      let id = !next_op in
      incr next_op;
      let t0 = Spans.now_ns () in
      let root = if traced then Spans.open_root ~name:root_id ~op:id else -1 in
      let r = try ops.(i).run ~root with _ -> false in
      if traced then Spans.close root;
      [ { idx = i; ns = Spans.now_ns () - t0; ok = r; cls = ops.(i).cls } ]
    in
    { order = Array.copy order; segment; finish = (fun ~seg_ns:_ -> ()) }

let run ~(seconds : float) ~(trace : bool) ~(nops : int)
    (start : traced:bool -> cycle) : result =
  let t_start = Spans.now_ns () in
  let elapsed () = Spans.ms_of_ns (Spans.now_ns () - t_start) /. 1e3 in
  (* an untraced run may stop inside a cycle after the first: its
     statistics are per-op medians, which need every op once, not whole
     cycles *)
  let stop c = c >= 1 && (not trace) && elapsed () >= seconds in
  let cycles = ref [] in
  let c = ref 0 in
  while !c = 0 || elapsed () < seconds || (trace && !c < 2) do
    let traced = trace && !c mod 2 = 1 in
    Spans.on := traced;
    Spans.cycle := !c;
    let cy = start ~traced in
    let lat = Array.make nops (-1) and ok = Array.make nops true in
    let nseg = Array.length cy.order in
    let cls = Array.make nops "" and seg = Array.make nseg (-1) in
    let gc0 = Gc.quick_stat () and pause0 = !Host.pause_ns in
    let k = ref 0 in
    while !k < nseg && not (stop !c) do
      let j = cy.order.(!k) in
      let t0 = Spans.now_ns () in
      let outs = cy.segment j in
      seg.(j) <- Spans.now_ns () - t0;
      List.iter
        (fun o ->
          lat.(o.idx) <- o.ns;
          ok.(o.idx) <- o.ok;
          cls.(o.idx) <- o.cls)
        outs;
      if trace then Host.gc_poll ();
      Host.sample_ref ();
      incr k
    done;
    if traced then begin
      let gc1 = Gc.quick_stat () in
      count "gc.minor_collections"
        (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
      count "gc.major_collections"
        (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      count "gc.pause_ms" (Spans.ms_of_ns (!Host.pause_ns - pause0))
    end;
    cy.finish ~seg_ns:seg;
    if !k > 0 then cycles := (traced, lat, ok, cls, seg) :: !cycles;
    incr c
  done;
  Spans.on := false;
  let cs = Array.of_list (List.rev !cycles) in
  {
    ncycles = Array.length cs;
    traced = Array.map (fun (t, _, _, _, _) -> t) cs;
    lat_ns = Array.map (fun (_, l, _, _, _) -> l) cs;
    ok = Array.map (fun (_, _, o, _, _) -> o) cs;
    cls = Array.map (fun (_, _, _, c, _) -> c) cs;
    seg_ns = Array.map (fun (_, _, _, _, s) -> s) cs;
  }
