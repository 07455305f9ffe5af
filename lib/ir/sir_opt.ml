(** IR-to-IR rewrites over the lowered SPMD program.

    Five passes, applied in canonical order between [lower-spmd] and
    [recovery-plan] (so recovery plans never reference deleted ops):

    - [dte]: delete transfers {!Sir_dataflow} proves dead ([W0606]);
    - [rte]: delete transfers {!Sir_dataflow} proves redundant
      ([W0607]);
    - [merge]: fuse adjacent same-(src, dst) element transfers into one
      block transfer (one packet per pair instead of one per element);
    - [hoist]: drop placement-prefix indices a block transfer provably
      does not depend on, so the block ships once per {e outer}
      placement instance;
    - [combine]: drop reduction-combine steps whose accumulator is
      provably clean on every path.

    Soundness discipline: [dte] deletes {e one} op at a time and re-runs
    the fixpoints (on a {!Sir_dataflow.prepared} context) before the
    next deletion; [rte] takes its deletions from one analysis, deleting
    a candidate only while the fact it delivers keeps a cover that was
    not deleted.  Both choose exactly what the one-at-a-time loop
    chooses, so mutually-covering transfers are never both removed and
    the post-optimization [verify-flow] audit reports zero
    [W0606]/[W0607] by construction.  The passes share one analysis of
    the program as it stands: a pass that needs one takes it from the
    pass before or builds it, hands on the analysis of the program it
    leaves, and a pass that edits without analyzing drops it.
    Every rewrite is recorded as a {!Sir.witness} in the program's
    [opt_applied] field: the edit script {!Phpf_verify.Sir_check}
    replays on a fresh lowering, and the evidence it checks the
    deletions against. *)

open Hpf_lang

(* ------------------------------------------------------------------ *)
(* The edit script                                                     *)
(* ------------------------------------------------------------------ *)

(* Every rewrite is its witness applied: the passes below decide, [edit]
   performs.  Uids never move between statements, so one index built
   up front resolves every witness of a script. *)
type editor = {
  prog : Sir.program;
  home : (int, Ast.stmt_id) Hashtbl.t;  (** uid -> statement *)
}

let editor (p : Sir.program) : editor =
  let home = Hashtbl.create 64 in
  Hashtbl.iter
    (fun sid (ops : Sir.stmt_ops) ->
      List.iter
        (fun (op : Sir.comm_op) -> Hashtbl.replace home op.Sir.uid sid)
        ops.Sir.comms)
    p.Sir.stmts;
  { prog = p; home }

let carries (ops : Sir.stmt_ops) uid =
  List.exists (fun (o : Sir.comm_op) -> o.Sir.uid = uid) ops.Sir.comms

let home_of (e : editor) (uid : int) : Sir.stmt_ops option =
  match Hashtbl.find_opt e.home uid with
  | None -> None
  | Some sid -> (
      match Hashtbl.find_opt e.prog.Sir.stmts sid with
      | Some ops when carries ops uid -> Some ops
      | _ -> None)

(* The statement a witness edits, if the program has everything the
   witness names. *)
let target (e : editor) (w : Sir.witness) : Sir.stmt_ops option =
  match w with
  | Sir.W_dead { uid } | Sir.W_redundant { uid; _ } | Sir.W_hoist { uid; _ } ->
      home_of e uid
  | Sir.W_merge { members = []; _ } -> None
  | Sir.W_merge { members = first :: rest; _ } -> (
      match home_of e first with
      | Some ops when List.for_all (carries ops) rest -> Some ops
      | _ -> None)
  | Sir.W_combine { sid; steps; reduce_uids } -> (
      match Hashtbl.find_opt e.prog.Sir.stmts sid with
      | Some ops
        when List.for_all
               (fun k -> k >= 0 && k < List.length ops.Sir.red_steps)
               steps
             && List.for_all (carries ops) reduce_uids ->
          Some ops
      | _ -> None)

let edit (e : editor) (w : Sir.witness) : Sir.stmt_ops option =
  let found = target e w in
  Option.iter
    (fun (ops : Sir.stmt_ops) ->
      let without uids =
        List.filter
          (fun (o : Sir.comm_op) -> not (List.mem o.Sir.uid uids))
          ops.Sir.comms
      in
      let edited =
        match w with
        | Sir.W_dead { uid } | Sir.W_redundant { uid; _ } ->
            { ops with Sir.comms = without [ uid ] }
        | Sir.W_merge { members; block } ->
            let first = List.hd members in
            {
              ops with
              Sir.comms =
                List.filter_map
                  (fun (o : Sir.comm_op) ->
                    if o.Sir.uid = first then Some block
                    else if List.mem o.Sir.uid members then None
                    else Some o)
                  ops.Sir.comms;
            }
        | Sir.W_hoist { uid; dropped } ->
            {
              ops with
              Sir.comms =
                List.map
                  (fun (o : Sir.comm_op) ->
                    match o.Sir.xfer with
                    | Sir.Block_xfer b when o.Sir.uid = uid ->
                        {
                          o with
                          Sir.xfer =
                            Sir.Block_xfer
                              {
                                b with
                                prefix_vars =
                                  List.filter
                                    (fun v -> not (List.mem v dropped))
                                    b.prefix_vars;
                              };
                        }
                    | _ -> o)
                  ops.Sir.comms;
            }
        | Sir.W_combine { steps; reduce_uids; _ } ->
            {
              ops with
              Sir.red_steps =
                List.filteri
                  (fun k _ -> not (List.mem k steps))
                  ops.Sir.red_steps;
              comms = without reduce_uids;
            }
      in
      Hashtbl.replace e.prog.Sir.stmts ops.Sir.sid edited)
    found;
  found

let edit_all (p : Sir.program) (ws : Sir.witness list) : unit =
  if ws <> [] then begin
    let e = editor p in
    List.iter (fun w -> ignore (edit e w)) ws
  end

let rewrites (ws : Sir.witness list) : int =
  List.fold_left
    (fun n -> function
      | Sir.W_dead _ | Sir.W_redundant _ -> n + 1
      | Sir.W_merge { members; _ } -> n + List.length members - 1
      | Sir.W_hoist { dropped; _ } -> n + List.length dropped
      | Sir.W_combine { steps; reduce_uids; _ } ->
          n + List.length steps + List.length reduce_uids)
    0 ws

(* ------------------------------------------------------------------ *)
(* dte / rte: certified deletions                                      *)
(* ------------------------------------------------------------------ *)

(* The analysis of the program as it stands, from the pass before when
   it left one. *)
let analysis ?flow (p : Sir.program) : Sir_dataflow.summary =
  match flow with Some s -> s | None -> Sir_dataflow.summarize p

(* A dead transfer's deletion removes a read of its source copy, which
   can leave another transfer dead, so [dte] recomputes the class after
   every deletion.  The CFG, the interning table and the node plans are
   prepared once; a deletion re-plans only the statement it touched.
   The last round, the one that found nothing dead, is the analysis of
   the program [dte] leaves. *)
let dte ?flow (p : Sir.program) : Sir.witness list * Sir_dataflow.summary =
  let first = analysis ?flow p and e = lazy (editor p) in
  let ctx = lazy (Sir_dataflow.resume first) in
  let rec go acc (s : Sir_dataflow.summary) =
    match s.Sir_dataflow.dead with
    | [] -> (List.rev acc, s)
    | (_, op) :: _ -> (
        let w = Sir.W_dead { uid = op.Sir.uid } in
        match edit (Lazy.force e) w with
        | None -> invalid_arg "Sir_opt: the analysis selected a deleted op"
        | Some ops ->
            let ctx = Lazy.force ctx in
            Sir_dataflow.replan ctx ops.Sir.sid;
            go (w :: acc) (Sir_dataflow.analyze ctx))
  in
  go [] first

(* A redundant transfer's deletion only clears its own facts, so every
   [rte] deletion is decided against one analysis: two transfers that
   each cover the other are both candidates, but the second loses its
   cover when the first goes. *)
let rte ?flow (p : Sir.program) :
    Sir.witness list * Sir_dataflow.summary option =
  let s = analysis ?flow p in
  let ws =
    Sir_dataflow.redundant_deletions s
    |> List.map (fun ((op : Sir.comm_op), covers) ->
           Sir.W_redundant { uid = op.Sir.uid; covers })
  in
  edit_all p ws;
  (ws, if ws = [] then Some s else None)

(* ------------------------------------------------------------------ *)
(* merge: adjacent same-(src, dst) element transfers -> one block      *)
(* ------------------------------------------------------------------ *)

(* Two adjacent element transfers are mergeable when they move elements
   of the same base from the same owner line to the same destination
   set, and their subscript vectors differ in exactly one position by a
   constant offset: the pair is then one contiguous (strided) region,
   shippable as a single block per (src, dst) pair.  The merged block's
   prefix is the statement's full mirror, so it still ships once per
   statement instance — exactly the element ops' timing. *)
let merge_pair (mirror : string list) (uid_seed : int)
    (a : Sir.comm_op) (b : Sir.comm_op) : Sir.comm_op option =
  match (a.Sir.xfer, b.Sir.xfer) with
  | ( Sir.Elem_xfer
        { data = Sir.X_elem { base = ba; subs = sa; owner = oa }; dests = da },
      Sir.Elem_xfer
        { data = Sir.X_elem { base = bb; subs = sb; owner = ob }; dests = db }
    )
    when ba = bb && oa = ob && da = db && List.length sa = List.length sb ->
      let diffs =
        List.mapi (fun i (x, y) -> (i, x, y)) (List.combine sa sb)
        |> List.filter (fun (_, x, y) -> x <> y)
      in
      (match diffs with
      | [ (pos, x, y) ] -> (
          match Sir_dataflow.const_delta x y with
          | Some d when d <> 0 ->
              let lo, hi, step = if d > 0 then (x, y, d) else (y, x, -d) in
              let index = Fmt.str "%%m%d" uid_seed in
              let subs =
                List.mapi
                  (fun i s -> if i = pos then Ast.Var index else s)
                  sa
              in
              let crossed =
                [
                  {
                    Sir.index;
                    lo;
                    hi;
                    step = Ast.Int step;
                  };
                ]
              in
              Some
                {
                  a with
                  Sir.xfer =
                    Sir.Block_xfer
                      {
                        data = Sir.X_elem { base = ba; subs; owner = oa };
                        dests = da;
                        crossed;
                        prefix_vars = mirror;
                      };
                }
          | _ -> None)
      | _ -> None)
  | _ -> None

let merge (p : Sir.program) : Sir.witness list =
  let ws =
    Hashtbl.fold
      (fun _ (ops : Sir.stmt_ops) acc ->
        let rec fuse acc = function
          | a :: b :: rest -> (
              match merge_pair ops.Sir.mirror a.Sir.uid a b with
              | Some m ->
                  (* a fused block pairs with nothing: only element
                     transfers merge *)
                  fuse
                    (Sir.W_merge { members = [ a.Sir.uid; b.Sir.uid ]; block = m }
                    :: acc)
                    rest
              | None -> fuse acc (b :: rest))
          | _ -> acc
        in
        fuse acc ops.Sir.comms)
      p.Sir.stmts []
    |> List.rev
  in
  edit_all p ws;
  ws

(* ------------------------------------------------------------------ *)
(* hoist: drop prefix indices a block provably does not depend on      *)
(* ------------------------------------------------------------------ *)

(* Every name whose reference-memory value the shipped region depends
   on: subscripts, owner coordinates, destination predicates and
   crossed bounds — minus the crossed indices, which the walk binds. *)
let block_free_vars ~(data : Sir.xdata) ~(dests : Sir.dests)
    ~(crossed : Sir.loop_desc list) : string list =
  let of_data =
    match data with
    | Sir.X_scalar { owner; _ } -> Sir_dataflow.place_vars owner
    | Sir.X_elem { subs; owner; _ } ->
        List.concat_map Ast.expr_vars subs @ Sir_dataflow.place_vars owner
  in
  let of_bounds =
    List.concat_map
      (fun (l : Sir.loop_desc) ->
        Ast.expr_vars l.Sir.lo @ Ast.expr_vars l.Sir.hi
        @ Ast.expr_vars l.Sir.step)
      crossed
  in
  let bound = List.map (fun (l : Sir.loop_desc) -> l.Sir.index) crossed in
  List.sort_uniq compare (of_data @ Sir_dataflow.dests_vars dests @ of_bounds)
  |> List.filter (fun v -> not (List.mem v bound))

(* A prefix index [v] is droppable when nothing the block evaluates at
   ship time — payload addresses, owner line, destination set, crossed
   bounds — can change across [v]'s iterations: the shipped bytes and
   the (src, dst) pairs are identical every time, so shipping once per
   outer placement instance delivers the same copies.  The base itself
   must also stay unwritten inside the body of [v]'s loop — the
   innermost loop over [v] enclosing the anchor statement — or the
   first-iteration payload would be stale for later reads.  [nest] is
   the compile's loop nest of [p.source]. *)
let hoist ~(nest : Nest.t) (p : Sir.program) : Sir.witness list =
  let ws =
    Hashtbl.fold
      (fun sid (ops : Sir.stmt_ops) acc ->
        (* innermost first *)
        let loops = List.rev (Nest.enclosing_loops nest sid) in
        List.fold_left
          (fun acc (op : Sir.comm_op) ->
            match op.Sir.xfer with
            | Sir.Block_xfer { data; dests; crossed; prefix_vars } ->
                let free = block_free_vars ~data ~dests ~crossed in
                let base =
                  match data with
                  | Sir.X_scalar { var; _ } -> var
                  | Sir.X_elem { base; _ } -> base
                in
                let droppable v =
                  (not (List.mem v free))
                  &&
                  match
                    List.find_opt
                      (fun (li : Nest.loop_info) -> li.Nest.loop.Ast.index = v)
                      loops
                  with
                  | None -> false
                  | Some li ->
                      let written = Nest.written_in nest li in
                      (not (written base)) && not (List.exists written free)
                in
                let dropped = List.filter droppable prefix_vars in
                if dropped = [] then acc
                else Sir.W_hoist { uid = op.Sir.uid; dropped } :: acc
            | _ -> acc)
          acc ops.Sir.comms)
      p.Sir.stmts []
    |> List.rev
  in
  edit_all p ws;
  ws

(* ------------------------------------------------------------------ *)
(* combine: drop reduction combines of provably clean accumulators     *)
(* ------------------------------------------------------------------ *)

module Dirty = struct
  type t = int list  (** sorted indices of possibly-dirty accumulators *)

  let equal (a : t) (b : t) = a = b
  let join a b = List.sort_uniq compare (a @ b)
end

module Dirty_engine = Flow.Make (Dirty)

let marks_of (p : Sir.program) (var : string) : int list =
  let acc = ref [] in
  Array.iteri
    (fun i (r : Sir.reduce) -> if r.Sir.rvar = var then acc := i :: !acc)
    p.Sir.reductions;
  List.rev !acc

let dirty_steps (p : Sir.program) (st : Dirty.t)
    (steps : Sir.red_step list) : Dirty.t =
  List.fold_left
    (fun st (step : Sir.red_step) ->
      match step with
      | Sir.R_mark v -> Dirty.join st (marks_of p v)
      | Sir.R_combine ix -> List.filter (fun i -> i <> ix) st)
    st steps

let dirty_transfer (g : Sir_cfg.t) (p : Sir.program) (i : int)
    (st : Dirty.t) : Dirty.t =
  match Sir_cfg.ops_at g i with
  | None -> st
  | Some ops ->
      let st = dirty_steps p st ops.Sir.red_steps in
      (* a direct write to an accumulator outside the reduction
         protocol conservatively dirties it *)
      (match ops.Sir.exec with
      | Sir.Guarded_assign { lhs = Ast.LVar v; _ }
      | Sir.Guarded_assign { lhs = Ast.LArr (v, _); _ } ->
          Dirty.join st (marks_of p v)
      | _ -> st)

let combine (p : Sir.program) : Sir.witness list =
  if Array.length p.Sir.reductions = 0 then []
  else begin
    let g = Sir_cfg.build p in
    let dirty =
      Dirty_engine.fixpoint ~cfg:g ~direction:Flow.Forward ~boundary:[]
        ~init:[] ~transfer:(dirty_transfer g p)
    in
    let ws =
      Hashtbl.fold
        (fun sid (ops : Sir.stmt_ops) acc ->
          match Sir_dataflow.instance_node g sid with
          | None -> acc
          | Some node ->
              let st = ref dirty.Flow.input.(node) in
              let clean_pos = ref [] and clean_ixs = ref [] in
              List.iteri
                (fun k (step : Sir.red_step) ->
                  (match step with
                  | Sir.R_combine ix when not (List.mem ix !st) ->
                      clean_pos := k :: !clean_pos;
                      clean_ixs := ix :: !clean_ixs
                  | _ -> ());
                  st := dirty_steps p !st [ step ])
                ops.Sir.red_steps;
              if !clean_pos = [] then acc
              else begin
                (* drop clean occurrences positionally: the same index
                   can appear again on this statement with a dirty
                   accumulator, and that occurrence must survive *)
                let live_rvars =
                  List.concat
                    (List.mapi
                       (fun k (step : Sir.red_step) ->
                         match step with
                         | Sir.R_combine ix when not (List.mem k !clean_pos) ->
                             [ p.Sir.reductions.(ix).Sir.rvar ]
                         | Sir.R_combine _ | Sir.R_mark _ -> [])
                       ops.Sir.red_steps)
                in
                let clean_vars =
                  List.filter
                    (fun v -> not (List.mem v live_rvars))
                    (List.map
                       (fun ix -> p.Sir.reductions.(ix).Sir.rvar)
                       !clean_ixs)
                in
                let reduce_uids =
                  List.filter_map
                    (fun (op : Sir.comm_op) ->
                      match op.Sir.xfer with
                      | Sir.Reduce_xfer
                        when List.mem
                               op.Sir.cm.Hpf_comm.Comm.data
                                 .Hpf_analysis.Aref.base clean_vars ->
                          Some op.Sir.uid
                      | _ -> None)
                    ops.Sir.comms
                in
                Sir.W_combine
                  { sid; steps = List.rev !clean_pos; reduce_uids }
                :: acc
              end)
        p.Sir.stmts []
      |> List.rev
    in
    edit_all p ws;
    ws
  end

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)
(* ------------------------------------------------------------------ *)

(* Each pass takes the analysis of the program as it stands, when the
   pass before left one, and returns the analysis of the program it
   leaves, when it has one: a pass that edits nothing keeps the one it
   was given, and one that edits without analyzing drops it. *)
let keeping flow (ws : Sir.witness list) =
  (ws, if ws = [] then flow else None)

let passes :
    (string
    * string
    * (Nest.t ->
      Sir_dataflow.summary option ->
      Sir.program ->
      Sir.witness list * Sir_dataflow.summary option))
    list =
  [
    ( "dte",
      "dead-transfer elimination (payload never read: W0606 as a \
       deletion)",
      fun _ flow p ->
        let ws, s = dte ?flow p in
        (ws, Some s) );
    ( "rte",
      "redundant-transfer elimination (dominating delivery: W0607 as a \
       deletion)",
      fun _ flow p -> rte ?flow p );
    ( "merge",
      "fuse adjacent same-(src,dst) element transfers into one block",
      fun _ flow p -> keeping flow (merge p) );
    ( "hoist",
      "drop placement-prefix indices a block transfer does not depend \
       on",
      fun nest flow p -> keeping flow (hoist ~nest p) );
    ( "combine",
      "drop reduction combines of provably clean accumulators",
      fun _ flow p -> keeping flow (combine p) );
  ]

let pass_names = List.map (fun (n, _, _) -> n) passes

let descr_of (name : string) : string option =
  List.find_map
    (fun (n, d, _) -> if n = name then Some d else None)
    passes

let apply ~(nest : Nest.t) ?flow (name : string) (p : Sir.program) :
    int * Sir_dataflow.summary option =
  match List.find_opt (fun (n, _, _) -> n = name) passes with
  | None -> invalid_arg (Fmt.str "Sir_opt.apply: unknown pass %s" name)
  | Some (_, _, f) ->
      let ws, flow = f nest flow p in
      p.Sir.opt_applied <- p.Sir.opt_applied @ ws;
      (rewrites ws, flow)

let run ~(nest : Nest.t) (p : Sir.program) : (string * int) list =
  List.fold_left_map
    (fun flow n ->
      let k, flow = apply ~nest ?flow n p in
      (flow, (n, k)))
    None pass_names
  |> snd
