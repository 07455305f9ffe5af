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

    Soundness discipline: [dte]/[rte] delete {e one} op at a time and
    re-run the fixpoints (on a {!Sir_dataflow.prepared} context) before
    the next deletion, so mutually-covering transfers are never both
    removed and the post-optimization [verify-flow] audit reports zero
    [W0606]/[W0607] by construction.
    The applied pass names are recorded in the program's
    [opt_applied] field — the replay recipe
    {!Phpf_verify.Sir_check} uses to re-audit an optimized lowering
    against a fresh one. *)

open Hpf_lang

let replace_comms (p : Sir.program) (sid : Ast.stmt_id)
    (comms : Sir.comm_op list) : unit =
  match Hashtbl.find_opt p.Sir.stmts sid with
  | None -> ()
  | Some ops -> Hashtbl.replace p.Sir.stmts sid { ops with Sir.comms }

(* Delete one comm op (by uid) from the statement table; returns the
   statements it touched. *)
let delete_uid (p : Sir.program) (uid : int) : Ast.stmt_id list =
  let touched =
    Hashtbl.fold
      (fun sid (ops : Sir.stmt_ops) acc ->
        if List.exists (fun (op : Sir.comm_op) -> op.Sir.uid = uid) ops.Sir.comms
        then
          (sid, List.filter (fun (op : Sir.comm_op) -> op.Sir.uid <> uid) ops.Sir.comms)
          :: acc
        else acc)
      p.Sir.stmts []
  in
  List.iter (fun (sid, comms) -> replace_comms p sid comms) touched;
  List.map fst touched

(* ------------------------------------------------------------------ *)
(* dte / rte: certified deletions, one at a time                       *)
(* ------------------------------------------------------------------ *)

(* Deleting a transfer changes both fixpoints (its facts disappear, its
   source-copy read disappears), so the class is recomputed after every
   deletion: two transfers that each cover the other are flagged
   together but only one survives the loop.  The CFG, the interning
   table and the node plans are prepared once; a deletion re-plans only
   the statement it touched. *)
let delete_classified (select : Sir_dataflow.summary -> Sir.comm_op list)
    (p : Sir.program) : int =
  let ctx = Sir_dataflow.prepare p in
  let rec go deleted =
    match select (Sir_dataflow.analyze ctx) with
    | [] -> deleted
    | op :: _ -> (
        match delete_uid p op.Sir.uid with
        | [] -> invalid_arg "Sir_opt: the analysis selected a deleted op"
        | touched ->
            List.iter (Sir_dataflow.replan ctx) touched;
            go (deleted + 1))
  in
  go 0

let dte = delete_classified (fun s -> List.map snd s.Sir_dataflow.dead)

let rte =
  delete_classified (fun s -> List.map snd s.Sir_dataflow.redundant)

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

let merge (p : Sir.program) : int =
  let merged = ref 0 in
  let rewrites =
    Hashtbl.fold
      (fun sid (ops : Sir.stmt_ops) acc ->
        let rec fuse = function
          | a :: b :: rest -> (
              match merge_pair ops.Sir.mirror a.Sir.uid a b with
              | Some m ->
                  incr merged;
                  (* a freshly merged block can absorb a third sibling *)
                  fuse (m :: rest)
              | None -> a :: fuse (b :: rest))
          | short -> short
        in
        let comms = fuse ops.Sir.comms in
        if List.length comms <> List.length ops.Sir.comms then
          (sid, comms) :: acc
        else acc)
      p.Sir.stmts []
  in
  List.iter (fun (sid, comms) -> replace_comms p sid comms) rewrites;
  !merged

(* ------------------------------------------------------------------ *)
(* hoist: drop prefix indices a block provably does not depend on      *)
(* ------------------------------------------------------------------ *)

let coord_vars = function
  | Sir.C_all | Sir.C_fixed _ -> []
  | Sir.C_affine { sub; _ } -> Ast.expr_vars sub

let place_vars (pl : Sir.place) =
  Array.to_list pl |> List.concat_map coord_vars

let pred_vars = function
  | Sir.P_all -> []
  | Sir.P_place pl -> place_vars pl
  | Sir.P_union pls -> List.concat_map place_vars pls

let dests_vars = function
  | Sir.D_all -> []
  | Sir.D_pred pr -> pred_vars pr

(* Every name whose reference-memory value the shipped region depends
   on: subscripts, owner coordinates, destination predicates and
   crossed bounds — minus the crossed indices, which the walk binds. *)
let block_free_vars ~(data : Sir.xdata) ~(dests : Sir.dests)
    ~(crossed : Sir.loop_desc list) : string list =
  let of_data =
    match data with
    | Sir.X_scalar { owner; _ } -> place_vars owner
    | Sir.X_elem { subs; owner; _ } ->
        List.concat_map Ast.expr_vars subs @ place_vars owner
  in
  let of_bounds =
    List.concat_map
      (fun (l : Sir.loop_desc) ->
        Ast.expr_vars l.Sir.lo @ Ast.expr_vars l.Sir.hi
        @ Ast.expr_vars l.Sir.step)
      crossed
  in
  let bound = List.map (fun (l : Sir.loop_desc) -> l.Sir.index) crossed in
  List.sort_uniq compare (of_data @ dests_vars dests @ of_bounds)
  |> List.filter (fun v -> not (List.mem v bound))

(* Names (re)defined inside a statement list: assignment targets and
   the indices of nested loops. *)
let rec written_in (stmts : Ast.stmt list) : string list =
  List.concat_map
    (fun (s : Ast.stmt) ->
      match s.Ast.node with
      | Ast.Assign (Ast.LVar v, _) -> [ v ]
      | Ast.Assign (Ast.LArr (a, _), _) -> [ a ]
      | Ast.If (_, t, e) -> written_in t @ written_in e
      | Ast.Do d -> (d.Ast.index :: written_in d.Ast.body)
      | Ast.Exit _ | Ast.Cycle _ -> [])
    stmts

(* The body of the Do loop with the given index. *)
let loop_body (prog : Ast.program) (index : string) : Ast.stmt list option =
  let found = ref None in
  let rec scan stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        match s.Ast.node with
        | Ast.Do d ->
            if d.Ast.index = index && !found = None then
              found := Some d.Ast.body;
            scan d.Ast.body
        | Ast.If (_, t, e) ->
            scan t;
            scan e
        | _ -> ())
      stmts
  in
  scan prog.Ast.body;
  !found

(* A prefix index [v] is droppable when nothing the block evaluates at
   ship time — payload addresses, owner line, destination set, crossed
   bounds — can change across [v]'s iterations: the shipped bytes and
   the (src, dst) pairs are identical every time, so shipping once per
   outer placement instance delivers the same copies.  The base itself
   must also stay unwritten inside [v]'s body, or the first-iteration
   payload would be stale for later reads. *)
let hoist (p : Sir.program) : int =
  let dropped = ref 0 in
  let rewrites =
    Hashtbl.fold
      (fun sid (ops : Sir.stmt_ops) acc ->
        let changed = ref false in
        let comms =
          List.map
            (fun (op : Sir.comm_op) ->
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
                    match loop_body p.Sir.source v with
                    | None -> false
                    | Some body ->
                        let w = written_in body in
                        (not (List.mem base w))
                        && not (List.exists (fun x -> List.mem x w) free)
                  in
                  let kept =
                    List.filter (fun v -> not (droppable v)) prefix_vars
                  in
                  if List.length kept <> List.length prefix_vars then begin
                    changed := true;
                    dropped := !dropped + List.length prefix_vars
                    - List.length kept;
                    {
                      op with
                      Sir.xfer =
                        Sir.Block_xfer
                          { data; dests; crossed; prefix_vars = kept };
                    }
                  end
                  else op
              | _ -> op)
            ops.Sir.comms
        in
        if !changed then (sid, comms) :: acc else acc)
      p.Sir.stmts []
  in
  List.iter (fun (sid, comms) -> replace_comms p sid comms) rewrites;
  !dropped

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

let combine (p : Sir.program) : int =
  if Array.length p.Sir.reductions = 0 then 0
  else begin
    let g = Sir_cfg.build p in
    let dirty =
      Dirty_engine.fixpoint ~cfg:g ~direction:Flow.Forward ~boundary:[]
        ~init:[] ~transfer:(dirty_transfer g p)
    in
    let dropped = ref 0 in
    let rewrites =
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
                let red_steps =
                  List.filteri
                    (fun k _ -> not (List.mem k !clean_pos))
                    ops.Sir.red_steps
                in
                let live_rvars =
                  List.filter_map
                    (function
                      | Sir.R_combine ix ->
                          Some p.Sir.reductions.(ix).Sir.rvar
                      | Sir.R_mark _ -> None)
                    red_steps
                in
                let clean_vars =
                  List.filter
                    (fun v -> not (List.mem v live_rvars))
                    (List.map
                       (fun ix -> p.Sir.reductions.(ix).Sir.rvar)
                       !clean_ixs)
                in
                let comms =
                  List.filter
                    (fun (op : Sir.comm_op) ->
                      match op.Sir.xfer with
                      | Sir.Reduce_xfer ->
                          not
                            (List.mem
                               op.Sir.cm.Hpf_comm.Comm.data
                                 .Hpf_analysis.Aref.base clean_vars)
                      | _ -> true)
                    ops.Sir.comms
                in
                dropped :=
                  !dropped + List.length !clean_ixs
                  + (List.length ops.Sir.comms - List.length comms);
                (sid, { ops with Sir.red_steps; Sir.comms }) :: acc
              end)
        p.Sir.stmts []
    in
    List.iter
      (fun (sid, ops) -> Hashtbl.replace p.Sir.stmts sid ops)
      rewrites;
    !dropped
  end

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)
(* ------------------------------------------------------------------ *)

let passes : (string * string * (Sir.program -> int)) list =
  [
    ( "dte",
      "dead-transfer elimination (payload never read: W0606 as a \
       deletion)",
      dte );
    ( "rte",
      "redundant-transfer elimination (dominating delivery: W0607 as a \
       deletion)",
      rte );
    ( "merge",
      "fuse adjacent same-(src,dst) element transfers into one block",
      merge );
    ( "hoist",
      "drop placement-prefix indices a block transfer does not depend \
       on",
      hoist );
    ( "combine",
      "drop reduction combines of provably clean accumulators",
      combine );
  ]

let pass_names = List.map (fun (n, _, _) -> n) passes

let descr_of (name : string) : string option =
  List.find_map
    (fun (n, d, _) -> if n = name then Some d else None)
    passes

let apply (name : string) (p : Sir.program) : int =
  match List.find_opt (fun (n, _, _) -> n = name) passes with
  | None -> invalid_arg (Fmt.str "Sir_opt.apply: unknown pass %s" name)
  | Some (_, _, f) ->
      let k = f p in
      p.Sir.opt_applied <- p.Sir.opt_applied @ [ name ];
      k

let run (p : Sir.program) : (string * int) list =
  List.map (fun n -> (n, apply n p)) pass_names

let replay (names : string list) (p : Sir.program) : unit =
  List.iter (fun n -> ignore (apply n p)) names
