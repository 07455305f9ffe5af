(** Reduction recognition.

    Recognizes the two shapes the paper's evaluation needs:

    - plain scalar reductions [s = s op e] with [op] one of +, *, min, max
      (Fig. 5: a sum across the [j]-loop);
    - conditional min/max with location (DGEFA's partial-pivoting
      {e maxloc}):
      {v
        if (e > s) then
          s = e
          l = k
        end if
      v}

    A recognized reduction names the innermost loop that accumulates it;
    {!Phpf_core.Reduction_map} later decides the mapping of [s] (and any
    location variables) following paper §2.3. *)

open Hpf_lang

type red_op = Rsum | Rprod | Rmax | Rmin

let pp_red_op ppf op =
  Fmt.string ppf
    (match op with
    | Rsum -> "sum"
    | Rprod -> "product"
    | Rmax -> "max"
    | Rmin -> "min")

type red = {
  var : string;
  op : red_op;
  loop_sid : Ast.stmt_id;  (** innermost loop carrying the accumulation *)
  stmt_sid : Ast.stmt_id;  (** the accumulating assignment (or the [If]) *)
  contrib : Ast.expr;  (** the contributed expression [e] *)
  loc_vars : (string * Ast.expr) list;
      (** companion location assignments inside a conditional reduction *)
  conditional : bool;
}

(* Does expression [e] mention variable [v]? *)
let mentions v e = List.mem v (Ast.expr_vars e)

(* Match "s = s op e" (either operand order for commutative ops). *)
let match_plain (lhs : string) (rhs : Ast.expr) : (red_op * Ast.expr) option =
  match rhs with
  | Bin (Add, Var v, e) when v = lhs && not (mentions lhs e) -> Some (Rsum, e)
  | Bin (Add, e, Var v) when v = lhs && not (mentions lhs e) -> Some (Rsum, e)
  | Bin (Mul, Var v, e) when v = lhs && not (mentions lhs e) -> Some (Rprod, e)
  | Bin (Mul, e, Var v) when v = lhs && not (mentions lhs e) -> Some (Rprod, e)
  | Intrin (Max2, Var v, e) when v = lhs && not (mentions lhs e) ->
      Some (Rmax, e)
  | Intrin (Max2, e, Var v) when v = lhs && not (mentions lhs e) ->
      Some (Rmax, e)
  | Intrin (Min2, Var v, e) when v = lhs && not (mentions lhs e) ->
      Some (Rmin, e)
  | Intrin (Min2, e, Var v) when v = lhs && not (mentions lhs e) ->
      Some (Rmin, e)
  | _ -> None

(* Match the conditional maxloc/minloc shape.  Returns
   (op, var, contrib, loc assignments). *)
let match_conditional (s : Ast.stmt) :
    (red_op * string * Ast.expr * (string * Ast.expr) list) option =
  match s.node with
  | If (cond, then_branch, []) -> (
      let cmp =
        match cond with
        | Bin (Gt, e, Var v) -> Some (Rmax, v, e)
        | Bin (Lt, Var v, e) -> Some (Rmax, v, e)
        | Bin (Ge, e, Var v) -> Some (Rmax, v, e)
        | Bin (Lt, e, Var v) -> Some (Rmin, v, e)
        | Bin (Gt, Var v, e) -> Some (Rmin, v, e)
        | Bin (Le, e, Var v) -> Some (Rmin, v, e)
        | _ -> None
      in
      match cmp with
      | None -> None
      | Some (op, v, e) ->
          (* then branch: exactly one "v = e" plus scalar location
             assignments not reading v *)
          let update = ref false in
          let locs = ref [] in
          let ok =
            List.for_all
              (fun (st : Ast.stmt) ->
                match st.node with
                | Assign (LVar lv, rhs) when lv = v ->
                    if Ast.equal_expr rhs e then begin
                      update := true;
                      true
                    end
                    else false
                | Assign (LVar lv, rhs)
                  when (not (mentions v rhs)) && not (mentions lv e) ->
                    locs := (lv, rhs) :: !locs;
                    true
                | _ -> false)
              then_branch
          in
          if ok && !update && not (mentions v e) then
            Some (op, v, e, List.rev !locs)
          else None)
  | _ -> None

(** Find reduction statements in a program.  A candidate is rejected when
    the accumulator is defined elsewhere inside the accumulating loop
    (the partial order would be observable). *)
let analyze (nest : Nest.t) (prog : Ast.program) : red list =
  let out = ref [] in
  (* an accumulator must be the loop's only scalar definition of its
     variable *)
  let single_def (li : Nest.loop_info) v =
    match
      List.filter
        (fun (s : Ast.stmt) ->
          match s.node with Assign (LVar _, _) -> true | _ -> false)
        (Nest.writes_in nest li v)
    with
    | [ _ ] -> true
    | _ -> false
  in
  let conditional_updates : (Ast.stmt_id * string) list ref = ref [] in
  (* First collect conditional reductions so their inner assigns are not
     reported as plain candidates. *)
  Ast.iter_program
    (fun s ->
      match match_conditional s with
      | Some (op, var, contrib, loc_vars) -> (
          match Nest.innermost_loop nest s.sid with
          | Some li when single_def li var ->
              List.iter
                (fun (st : Ast.stmt) ->
                  match st.node with
                  | Assign (LVar v, _) ->
                      conditional_updates := (st.sid, v) :: !conditional_updates
                  | _ -> ())
                (match s.node with If (_, t, _) -> t | _ -> []);
              out :=
                {
                  var;
                  op;
                  loop_sid = li.loop_sid;
                  stmt_sid = s.sid;
                  contrib;
                  loc_vars;
                  conditional = true;
                }
                :: !out
          | _ -> ())
      | None -> ())
    prog;
  Ast.iter_program
    (fun s ->
      match s.node with
      | Assign (LVar v, rhs)
        when not (List.mem (s.sid, v) !conditional_updates) -> (
          match match_plain v rhs with
          | Some (op, contrib) -> (
              match Nest.innermost_loop nest s.sid with
              | Some li when single_def li v ->
                  out :=
                    {
                      var = v;
                      op;
                      loop_sid = li.loop_sid;
                      stmt_sid = s.sid;
                      contrib;
                      loc_vars = [];
                      conditional = false;
                    }
                    :: !out
              | _ -> ())
          | None -> ())
      | _ -> ())
    prog;
  List.sort compare !out

(** The reduction (if any) accumulated by statement [sid]. *)
let reduction_of_stmt (reds : red list) (sid : Ast.stmt_id) : red option =
  List.find_opt (fun r -> r.stmt_sid = sid) reds
