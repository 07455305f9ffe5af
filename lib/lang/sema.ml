(** Semantic checks and normalization for kernel-language programs.

    {!check} validates a program and returns it with statement ids
    renumbered deterministically.  Checks performed:

    - every referenced variable is declared, a parameter, or an enclosing
      loop index;
    - array references have as many subscripts as the declared rank, and
      scalars are not subscripted;
    - loop indices are not assigned inside their loop;
    - directives refer to declared arrays/grids with matching ranks;
    - [NEW] variables are declared;
    - [EXIT]/[CYCLE] name an enclosing loop (when named) and appear inside
      a loop;
    - operand types fit their operators (no logical in arithmetic, a
      comparison, a subscript or a loop bound; no real in an [IF]
      condition or a logical operator), so a checked program never
      fails a run-time type conversion.

    Violations are reported as {!Diag.t} values (codes [E0301]-[E0307])
    carrying the location of the offending statement when it has one;
    {!check_result} accumulates one diagnostic per offending declaration,
    directive and top-level statement instead of stopping at the first. *)

open Ast

let err ~code fmt =
  Fmt.kstr (fun s -> raise (Diag.Fatal [ Diag.error ~code s ])) fmt

type env = {
  prog : program;
  grids : (string * int) list;  (** grid name -> rank *)
  decls : (string, decl) Hashtbl.t;
  params : (string, int) Hashtbl.t;
}

(* Name tables built once per program; the first declaration or
   parameter of a name wins, as in {!Ast.find_decl} and
   {!Ast.param_value}. *)
let make_env (p : program) ~grids : env =
  let decls = Hashtbl.create 16 and params = Hashtbl.create 16 in
  List.iter
    (fun d -> if not (Hashtbl.mem decls d.dname) then Hashtbl.add decls d.dname d)
    p.decls;
  List.iter
    (fun (n, v) -> if not (Hashtbl.mem params n) then Hashtbl.add params n v)
    p.params;
  { prog = p; grids; decls; params }

let find_decl env name = Hashtbl.find_opt env.decls name
let param_value env name = Hashtbl.find_opt env.params name

let decl_rank env name =
  match find_decl env name with
  | Some d -> Some (Types.rank d.shape)
  | None -> None

let rec check_expr env ~indices (e : expr) =
  match e with
  | Int _ | Real _ | Bool _ -> ()
  | Var v ->
      if
        (not (List.mem v indices))
        && param_value env v = None
        && find_decl env v = None
      then err ~code:"E0301" "undeclared variable %s" v;
      (match decl_rank env v with
      | Some r when r > 0 ->
          err ~code:"E0302" "array %s referenced without subscripts" v
      | _ -> ())
  | Arr (a, subs) -> (
      List.iter (check_expr env ~indices) subs;
      match decl_rank env a with
      | None -> err ~code:"E0301" "undeclared array %s" a
      | Some 0 -> err ~code:"E0302" "scalar %s referenced with subscripts" a
      | Some r when r <> List.length subs ->
          err ~code:"E0302" "array %s has rank %d but %d subscripts given" a
            r (List.length subs)
      | Some _ -> ())
  | Bin (_, x, y) | Intrin (_, x, y) ->
      check_expr env ~indices x;
      check_expr env ~indices y
  | Un (_, x) -> check_expr env ~indices x

(* ------------------------------------------------------------------ *)
(* Operand types                                                       *)
(* ------------------------------------------------------------------ *)

(* The run-time type an expression can have.  [Num] is an integer or a
   real, known only at run time (an integer power with a possibly
   negative exponent). *)
type vty = Int | Real | Num | Logical

let vty_name = function
  | Int -> "integer"
  | Real -> "real"
  | Num -> "numeric"
  | Logical -> "logical"

(* Integer and real promote to each other; an integer pair stays
   integer. *)
let promote a b =
  match (a, b) with
  | Int, Int -> Int
  | Real, _ | _, Real -> Real
  | _ -> Num

(* Types of a name-checked expression (run after {!check_expr}).
   Numeric operators, comparisons, intrinsics and subscripts need
   numbers; logical operators need integers or logicals — exactly what
   the evaluator converts without failing.  [where] names the context
   of an operand, printed only for a diagnostic. *)
let rec type_of env ~indices (e : expr) : vty =
  let where () = Pp.expr_to_string e in
  match e with
  | Int _ -> Int
  | Real _ -> Real
  | Bool _ -> Logical
  | Var v -> (
      if List.mem v indices || param_value env v <> None then Int
      else
        match find_decl env v with
        | Some { ty = Types.TReal; _ } -> Real
        | Some { ty = Types.TBool; _ } -> Logical
        | Some { ty = Types.TInt; _ } | None -> Int)
  | Arr (a, subs) -> (
      List.iter
        (fun x ->
          ignore
            (numeric env ~indices ~where:(fun () -> "a subscript of " ^ a) x))
        subs;
      match find_decl env a with
      | Some { ty = Types.TReal; _ } -> Real
      | Some { ty = Types.TBool; _ } -> Logical
      | Some { ty = Types.TInt; _ } | None -> Int)
  | Bin ((Add | Sub | Mul | Div | Pow) as op, x, y) -> (
      let tx = numeric env ~indices ~where x in
      let ty = numeric env ~indices ~where y in
      match (op, tx, ty) with Pow, Int, Int -> Num | _ -> promote tx ty)
  | Bin ((Eq | Ne | Lt | Le | Gt | Ge), x, y) ->
      ignore (numeric env ~indices ~where x);
      ignore (numeric env ~indices ~where y);
      Logical
  | Bin ((And | Or), x, y) ->
      truth env ~indices ~where x;
      truth env ~indices ~where y;
      Logical
  | Un (Not, x) ->
      truth env ~indices ~where x;
      Logical
  | Un ((Neg | Abs | Sign), x) -> numeric env ~indices ~where x
  | Un ((Sqrt | Exp | Log), x) ->
      ignore (numeric env ~indices ~where x);
      Real
  | Intrin (_, x, y) ->
      let tx = numeric env ~indices ~where x in
      let ty = numeric env ~indices ~where y in
      promote tx ty

and numeric env ~indices ~where x =
  match type_of env ~indices x with
  | (Int | Real | Num) as t -> t
  | Logical ->
      err ~code:"E0307" "%s is logical where %s expects a number"
        (Pp.expr_to_string x) (where ())

and truth env ~indices ~where x =
  match type_of env ~indices x with
  | Int | Logical -> ()
  | (Real | Num) as t ->
      err ~code:"E0307" "%s is %s where %s expects an integer or logical"
        (Pp.expr_to_string x) (vty_name t) (where ())

let check_types env ~indices (s : stmt) =
  match s.node with
  | Assign (lhs, rhs) ->
      (match lhs with
      | LVar _ -> ()
      | LArr (a, subs) ->
          List.iter
            (fun x ->
              ignore
                (numeric env ~indices ~where:(fun () -> "a subscript of " ^ a) x))
            subs);
      (* an assignment converts any value to the target's type *)
      ignore (type_of env ~indices rhs)
  | If (c, _, _) ->
      truth env ~indices ~where:(fun () -> "an IF condition") c
  | Do d ->
      List.iter
        (fun x ->
          ignore
            (numeric env ~indices ~where:(fun () -> "a bound of loop " ^ d.index) x))
        [ d.lo; d.hi; d.step ]
  | Exit _ | Cycle _ -> ()

let check_lhs env ~indices = function
  | LVar v -> (
      if List.mem v indices then
        err ~code:"E0303" "assignment to loop index %s" v;
      if param_value env v <> None then
        err ~code:"E0303" "assignment to parameter %s" v;
      match decl_rank env v with
      | None -> err ~code:"E0301" "undeclared variable %s" v
      | Some r when r > 0 ->
          err ~code:"E0302" "array %s assigned without subscripts" v
      | Some _ -> ())
  | LArr (a, subs) -> (
      List.iter (check_expr env ~indices) subs;
      match decl_rank env a with
      | None -> err ~code:"E0301" "undeclared array %s" a
      | Some 0 -> err ~code:"E0302" "scalar %s assigned with subscripts" a
      | Some r when r <> List.length subs ->
          err ~code:"E0302" "array %s has rank %d but %d subscripts given" a
            r (List.length subs)
      | Some _ -> ())

(* A diagnostic without a location gets the statement's: the innermost
   offending statement locates it. *)
let located (s : stmt) f =
  try f ()
  with Diag.Fatal ds ->
    raise
      (Diag.Fatal
         (List.map
            (fun (d : Diag.t) ->
              match d.Diag.loc with
              | None -> { d with Diag.loc = s.loc }
              | Some _ -> d)
            ds))

let rec check_stmt env ~indices ~loops (s : stmt) =
  located s @@ fun () ->
  match s.node with
  | Assign (lhs, rhs) ->
      check_lhs env ~indices lhs;
      check_expr env ~indices rhs;
      check_types env ~indices s
  | If (c, t, e) ->
      check_expr env ~indices c;
      check_types env ~indices s;
      List.iter (check_stmt env ~indices ~loops) t;
      List.iter (check_stmt env ~indices ~loops) e
  | Exit name | Cycle name -> (
      if loops = [] then err ~code:"E0306" "exit/cycle outside any loop";
      match name with
      | None -> ()
      | Some n ->
          if not (List.mem (Some n) loops) then
            err ~code:"E0306" "exit/cycle names unknown loop %s" n)
  | Do d ->
      if List.mem d.index indices then
        err ~code:"E0303" "loop index %s reused by nested loop" d.index;
      check_expr env ~indices d.lo;
      check_expr env ~indices d.hi;
      check_expr env ~indices d.step;
      check_types env ~indices s;
      List.iter
        (fun v ->
          if find_decl env v = None then
            err ~code:"E0301" "NEW variable %s is not declared" v)
        d.new_vars;
      let indices = d.index :: indices in
      let loops = d.loop_name :: loops in
      List.iter (check_stmt env ~indices ~loops) d.body

let check_directive env = function
  | Processors { grid = _; extents } ->
      List.iter
        (fun e ->
          match const_int_opt env.prog e with
          | Some n when n >= 1 -> ()
          | Some n -> err ~code:"E0304" "processors extent %d must be >= 1" n
          | None -> err ~code:"E0304" "processors extents must be constant")
        extents
  | Distribute { array; fmts; onto } -> (
      (match onto with
      | Some g when not (List.mem_assoc g env.grids) ->
          err ~code:"E0304" "distribute onto unknown grid %s" g
      | Some g ->
          let grid_rank = List.assoc g env.grids in
          let mapped =
            List.length (List.filter (fun f -> f <> Star) fmts)
          in
          if mapped > grid_rank then
            err ~code:"E0304"
              "distribute of %s maps %d dims onto rank-%d grid %s" array
              mapped grid_rank g
      | None -> ());
      match decl_rank env array with
      | None -> err ~code:"E0301" "distribute of undeclared array %s" array
      | Some r when r <> List.length fmts ->
          err ~code:"E0302" "distribute of %s: %d formats for rank %d" array
            (List.length fmts) r
      | Some 0 -> err ~code:"E0304" "cannot distribute scalar %s" array
      | Some _ -> ())
  | Align { alignee; target; subs } -> (
      (match decl_rank env alignee with
      | None -> err ~code:"E0301" "align of undeclared variable %s" alignee
      | Some _ -> ());
      match decl_rank env target with
      | None -> err ~code:"E0301" "align with undeclared array %s" target
      | Some r when r <> List.length subs ->
          err ~code:"E0302" "align with %s: %d subscripts for rank %d" target
            (List.length subs) r
      | Some _ ->
          let alignee_rank =
            match decl_rank env alignee with Some r -> r | None -> 0
          in
          List.iter
            (function
              | A_dim { dum; _ } when dum < 0 || dum >= max 1 alignee_rank ->
                  err ~code:"E0304" "align of %s: dummy $%d out of range"
                    alignee dum
              | A_dim { stride = 0; _ } ->
                  err ~code:"E0304" "align of %s: zero stride" alignee
              | A_dim _ | A_const _ | A_star -> ())
            subs)

(** Check for duplicate declarations and declaration/parameter clashes. *)
let check_decls env (p : program) =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun d ->
      if Hashtbl.mem seen d.dname then
        err ~code:"E0305" "duplicate declaration of %s" d.dname;
      if param_value env d.dname <> None then
        err ~code:"E0305" "%s declared both as parameter and variable"
          d.dname;
      Hashtbl.add seen d.dname ())
    p.decls;
  let pseen = Hashtbl.create 16 in
  List.iter
    (fun (n, _) ->
      if Hashtbl.mem pseen n then err ~code:"E0305" "duplicate parameter %s" n;
      Hashtbl.add pseen n ())
    p.params

(** Validate [p]; return it with deterministic statement ids, or the
    accumulated diagnostics.  Each top-level unit (declaration set,
    directive, top-level statement) contributes at most one diagnostic,
    so several independent mistakes are reported in a single run. *)
let check_result (p : program) : (program, Diag.t list) result =
  let diags = ref [] in
  let guard f = try f () with Diag.Fatal ds -> diags := !diags @ ds in
  let grids =
    List.filter_map
      (function
        | Processors { grid; extents } -> Some (grid, List.length extents)
        | Distribute _ | Align _ -> None)
      p.directives
  in
  let env = make_env p ~grids in
  guard (fun () -> check_decls env p);
  List.iter (fun d -> guard (fun () -> check_directive env d)) p.directives;
  List.iter
    (fun s -> guard (fun () -> check_stmt env ~indices:[] ~loops:[] s))
    p.body;
  match !diags with [] -> Ok (renumber p) | ds -> Error ds

(** Validate [p]; return it with deterministic statement ids.
    @raise Diag.Fatal with the accumulated diagnostics on any violation. *)
let check (p : program) : program =
  match check_result p with Ok p -> p | Error ds -> raise (Diag.Fatal ds)

(** [check] then return, or raise {!Diag.Fatal} with the program name
    prepended to each message for context. *)
let check_named (p : program) : program =
  try check p
  with Diag.Fatal ds ->
    raise
      (Diag.Fatal
         (List.map
            (fun (d : Diag.t) ->
              { d with Diag.message = p.pname ^ ": " ^ d.Diag.message })
            ds))
