(** Induction-variable recognition and closed-form rewriting.

    Recognizes the paper's pattern (Fig. 1, statement [S1]): a scalar [m]
    with a loop-header φ merging a constant initial value with a single
    unconditional in-loop increment [m = m + c] ([c] a loop-invariant
    integer constant).  The phpf compiler "replaces the rhs of that
    assignment statement by the closed-form expression for the value of
    that induction variable as a function of surrounding loop indices" —
    {!rewrite} performs exactly that source-to-source transformation, after
    which the mapping algorithm naturally privatizes the variable without
    alignment (its rhs no longer reads partitioned data). *)

open Hpf_lang

type iv = {
  var : string;
  loop_sid : Ast.stmt_id;  (** the loop whose iterations step the variable *)
  incr_sid : Ast.stmt_id;  (** the [v = v + c] statement *)
  phi_def : Ssa.def_id;  (** the loop-header φ of the variable *)
  incr_def : Ssa.def_id;  (** the definition made by the increment *)
  step_const : int;
  init_value : int;
  closed_form : Ast.expr;
      (** value of [var] {e after} the increment, as a function of the
          loop index *)
  closed_before : Ast.expr;
      (** value of [var] {e before} the increment in an iteration *)
}

(* The loop's index, lo and step for a Loop_head node. *)
let head_loop (g : Cfg.t) (node : int) : (Ast.stmt * Ast.do_loop) option =
  match (Cfg.node g node).kind with
  | Cfg.Loop_head s -> (
      match s.node with Ast.Do d -> Some (s, d) | _ -> None)
  | _ -> None

(* Match rhs = Var v + c or c + Var v or Var v - c, with c constant. *)
let match_increment (prog : Ast.program) (var : string) (rhs : Ast.expr) :
    int option =
  let const e = Ast.const_int_opt prog e in
  match rhs with
  | Bin (Add, Var v, e) when v = var -> const e
  | Bin (Add, e, Var v) when v = var -> const e
  | Bin (Sub, Var v, e) when v = var -> Option.map (fun c -> -c) (const e)
  | _ -> None

(** Recognize all simple induction variables of a program. *)
let analyze (ssa : Ssa.t) (cp : Constprop.t) : iv list =
  let g = ssa.Ssa.cfg in
  let prog = g.Cfg.prog in
  let dom = ssa.Ssa.dom in
  let out = ref [] in
  Array.iteri
    (fun phi_id site ->
      match site with
      | Ssa.Entry_def _ | Ssa.Node_def _ -> ()
      | Ssa.Phi { node; var; args } -> (
          match head_loop g node with
          | None -> ()
          | Some (loop_stmt, d) when var <> d.index -> (
              (* classify args into init (forward edge) and step (back edge) *)
              let back, fwd =
                List.partition
                  (fun (pred, _) -> Ssa.is_back_edge g ~pred ~node)
                  args
              in
              match (back, fwd) with
              | [ (_, back_def) ], [ (_, init_def) ] -> (
                  match ssa.Ssa.defs.(back_def) with
                  | Ssa.Node_def { node = inc_node; var = v } when v = var -> (
                      let rhs_ok =
                        match (Cfg.node g inc_node).kind with
                        | Cfg.Simple { node = Assign (LVar lv, rhs); sid; _ }
                          when lv = var -> (
                            (* increment of the φ value itself *)
                            match
                              Ssa.reaching_def_at ssa ~node:inc_node ~var
                            with
                            | Some d when d = phi_id -> (
                                match match_increment prog var rhs with
                                | Some c -> Some (sid, c)
                                | None -> None)
                            | _ -> None)
                        | _ -> None
                      in
                      match rhs_ok with
                      | None -> ()
                      | Some (incr_sid, c) -> (
                          (* increment must run every iteration: its node
                             dominates the loop's step node *)
                          let step_nodes =
                            List.filter
                              (fun i ->
                                match (Cfg.node g i).kind with
                                | Cfg.Loop_step s -> s.sid = loop_stmt.sid
                                | _ -> false)
                              (Cfg.nodes_of_sid g loop_stmt.sid)
                          in
                          let dominates_step =
                            List.for_all
                              (fun sn -> Dom.dominates dom inc_node sn)
                              step_nodes
                          in
                          if not dominates_step then ()
                          else
                            match
                              (Constprop.def_value cp init_def,
                               Ast.const_int_opt prog d.step)
                            with
                            | Some (Constprop.VInt v0), Some step
                              when step <> 0 ->
                                (* trips completed after the increment in
                                   iteration i: (i - lo) / step + 1 *)
                                let idx : Ast.expr = Var d.index in
                                let lo = Ast.subst_params prog d.lo in
                                let trips : Ast.expr =
                                  if step = 1 then
                                    Bin (Add, Bin (Sub, idx, lo), Int 1)
                                  else
                                    Bin
                                      ( Add,
                                        Bin
                                          ( Div,
                                            Bin (Sub, idx, lo),
                                            Int step ),
                                        Int 1 )
                                in
                                (* simplify through the affine machinery
                                   when possible *)
                                let simplify (e : Ast.expr) =
                                  match
                                    Affine.of_expr
                                      ~is_index:(fun v -> v = d.index)
                                      ~const_of:(fun v ->
                                        Ast.param_value prog v)
                                      e
                                  with
                                  | Some a -> Affine.to_expr a
                                  | None -> e
                                in
                                let scaled (t : Ast.expr) : Ast.expr =
                                  if c = 1 then Bin (Add, Int v0, t)
                                  else Bin (Add, Int v0, Bin (Mul, Int c, t))
                                in
                                let trips_before : Ast.expr =
                                  if step = 1 then Bin (Sub, idx, lo)
                                  else
                                    Bin (Div, Bin (Sub, idx, lo), Int step)
                                in
                                out :=
                                  {
                                    var;
                                    loop_sid = loop_stmt.sid;
                                    incr_sid;
                                    phi_def = phi_id;
                                    incr_def = back_def;
                                    step_const = c;
                                    init_value = v0;
                                    closed_form = simplify (scaled trips);
                                    closed_before =
                                      simplify (scaled trips_before);
                                  }
                                  :: !out
                            | _ -> ()))
                  | _ -> ())
              | _ -> ())
          | Some _ -> ()))
    ssa.Ssa.defs;
  List.sort compare !out

(** Replace each recognized increment's rhs by the closed form, and every
    use of the variable inside the loop by the closed form as well (the
    paper: "the value of m is known to be i+1 via induction variable
    analysis", which is what lets [D(m)] be analyzed as [D(i+1)]).
    Statement ids are preserved; without an induction variable [prog]
    itself is returned. *)
let rewrite (prog : Ast.program) (ssa : Ssa.t) (ivs : iv list) : Ast.program
    =
  if ivs = [] then prog
  else
    let g = ssa.Ssa.cfg in
    let by_incr = List.map (fun iv -> (iv.incr_sid, iv)) ivs in
    (* substitute uses of iv variables in an expression evaluated at CFG
       node [node] *)
    let subst_uses node (e : Ast.expr) : Ast.expr =
      let rec go (e : Ast.expr) : Ast.expr =
        match e with
        | Var v -> (
            match
              List.find_opt (fun iv -> String.equal iv.var v) ivs
            with
            | None -> e
            | Some iv -> (
                match Ssa.reaching_def_at ssa ~node ~var:v with
                | Some d when d = iv.incr_def -> iv.closed_form
                | Some d when d = iv.phi_def -> iv.closed_before
                | Some _ | None -> e))
        | Int _ | Real _ | Bool _ -> e
        | Arr (a, subs) -> Arr (a, List.map go subs)
        | Bin (op, a, b) -> Bin (op, go a, go b)
        | Un (op, a) -> Un (op, go a)
        | Intrin (op, a, b) -> Intrin (op, go a, go b)
      in
      go e
    in
    (* the single CFG node evaluating the expressions of a Simple/Branch
       statement *)
    let eval_node (sid : Ast.stmt_id) : int option =
      List.find_opt
        (fun n ->
          match (Cfg.node g n).kind with
          | Cfg.Simple _ | Cfg.Branch _ -> true
          | _ -> false)
        (Cfg.nodes_of_sid g sid)
    in
    let rec stmt (s : Ast.stmt) : Ast.stmt =
      match List.assoc_opt s.sid by_incr with
      | Some iv -> { s with node = Assign (LVar iv.var, iv.closed_form) }
      | None -> (
          match s.node with
          | Assign (lhs, rhs) -> (
              match eval_node s.sid with
              | None -> s
              | Some node ->
                  let lhs =
                    match lhs with
                    | Ast.LVar _ -> lhs
                    | Ast.LArr (a, subs) ->
                        Ast.LArr (a, List.map (subst_uses node) subs)
                  in
                  { s with node = Assign (lhs, subst_uses node rhs) })
          | If (c, t, e) ->
              let c =
                match eval_node s.sid with
                | Some node -> subst_uses node c
                | None -> c
              in
              { s with node = If (c, List.map stmt t, List.map stmt e) }
          | Do d -> { s with node = Do { d with body = List.map stmt d.body } }
          | Exit _ | Cycle _ -> s)
    in
    { prog with body = List.map stmt prog.body }

type result = {
  prog : Ast.program;
  ivs : iv list;
  ssa : Ssa.t option;
}

(** Build SSA, recognize, rewrite.  Without an induction variable the
    program comes back physically unchanged, with the SSA built on it,
    so a later pass can reuse that SSA instead of building it again;
    after a rewrite the SSA describes the old program and is dropped. *)
let run (prog : Ast.program) : result =
  let g = Cfg.build prog in
  let ssa = Ssa.build g in
  let cp = Constprop.compute ssa in
  match analyze ssa cp with
  | [] -> { prog; ivs = []; ssa = Some ssa }
  | ivs -> { prog = rewrite prog ssa ivs; ivs; ssa = None }
