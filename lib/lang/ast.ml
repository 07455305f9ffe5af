(** Abstract syntax for the HPF kernel language.

    The language is the subset of Fortran + HPF needed by the paper's
    analyses: assignments over affine array references, structured [DO]
    loops (optionally tagged [INDEPENDENT] with a [NEW] clause), structured
    [IF], restricted intra-loop control transfers ([EXIT] / [CYCLE], which
    model the paper's Fig. 7 gotos), and the HPF mapping directives
    [PROCESSORS] / [DISTRIBUTE] / [ALIGN].

    Statements carry a unique integer id ([sid]) used as the key by every
    analysis.  Construction-time ids come from a {e per-program} allocator
    ({!ids} / {!mk_in}); there is no global counter, so parsing and
    building programs is safe from concurrent domains.  Ids are
    re-assigned deterministically with {!renumber} (which {!Sema.check}
    and {!Builder.program} do), so compiled programs carry preorder ids
    [1..n] regardless of construction order. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Pow
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type unop = Neg | Not | Abs | Sqrt | Exp | Log | Sign

(** Intrinsic functions of two arguments. *)
type intrin2 = Min2 | Max2 | Mod2

type expr =
  | Int of int
  | Real of float
  | Bool of bool
  | Var of string  (** scalar (or loop-index / parameter) reference *)
  | Arr of string * expr list  (** array element reference *)
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Intrin of intrin2 * expr * expr

type lhs = LVar of string | LArr of string * expr list

type stmt_id = int

type stmt = {
  sid : stmt_id;
  node : stmt_node;
  loc : Loc.t option;
      (** source position when the statement came from the parser; [None]
          for programs built with {!Builder} or synthesized by rewrites *)
}

and stmt_node =
  | Assign of lhs * expr
  | If of expr * stmt list * stmt list
      (** [If (cond, then_branch, else_branch)] *)
  | Do of do_loop
  | Exit of string option
      (** terminate the (named) enclosing loop; a control transfer whose
          target lies {e outside} the loop body *)
  | Cycle of string option
      (** skip to the next iteration of the (named) enclosing loop; target
          stays {e inside} the loop body *)

and do_loop = {
  index : string;
  lo : expr;
  hi : expr;
  step : expr;
  body : stmt list;
  independent : bool;  (** [!HPF$ INDEPENDENT] asserted *)
  new_vars : string list;  (** [NEW(...)] clause of the directive *)
  loop_name : string option;
}

(** HPF distribution format for one dimension. *)
type dist_format =
  | Block
  | Cyclic
  | Block_cyclic of int
  | Star  (** collapsed: the whole dimension is local *)

(** One target-dimension component of an [ALIGN] directive.

    [ALIGN B(i1,...,ik) WITH A(c1,...,cm)] where each [cj] is either an
    affine use [stride * i_d + offset] of one alignee dummy, a constant, or
    ['*'] (the alignee is replicated along that target dimension). *)
type align_sub =
  | A_dim of { dum : int; stride : int; offset : int }
      (** [dum] is the 0-based alignee dimension index *)
  | A_const of int
  | A_star

type directive =
  | Processors of { grid : string; extents : expr list }
  | Distribute of { array : string; fmts : dist_format list; onto : string option }
  | Align of { alignee : string; target : string; subs : align_sub list }

type decl = {
  dname : string;
  ty : Types.elt_type;
  shape : Types.shape;  (** [[]] for scalars *)
}

type program = {
  pname : string;
  params : (string * int) list;
      (** compile-time integer parameters, usable in bounds/extents *)
  decls : decl list;
  directives : directive list;
  body : stmt list;
}

(* ------------------------------------------------------------------ *)
(* Statement id management                                             *)
(* ------------------------------------------------------------------ *)

(** Per-program statement-id allocator.  Each parse / build owns one, so
    two compiles never race on shared state and the same source always
    yields the same construction-time ids. *)
type ids = { mutable next_sid : int }

let ids () = { next_sid = 0 }

let fresh_sid (t : ids) =
  t.next_sid <- t.next_sid + 1;
  t.next_sid

(** Build an unnumbered statement ([sid = 0]).  Callers that need unique
    construction-time ids use {!mk_in}; everyone else relies on
    {!renumber} assigning the final preorder ids. *)
let mk ?loc node = { sid = 0; node; loc }

(** Build a statement numbered from the given per-program allocator. *)
let mk_in (t : ids) ?loc node = { sid = fresh_sid t; node; loc }

(** Reassign statement ids in deterministic preorder (1, 2, 3, ...).
    Run by {!Sema.check} so that analyses and tests see stable ids
    regardless of construction order. *)
let renumber (p : program) : program =
  let next = ref 0 in
  let rec stmt s =
    incr next;
    let sid = !next in
    let node =
      match s.node with
      | Assign _ | Exit _ | Cycle _ -> s.node
      | If (c, t, e) -> If (c, List.map stmt t, List.map stmt e)
      | Do d -> Do { d with body = List.map stmt d.body }
    in
    { s with sid; node }
  in
  { p with body = List.map stmt p.body }

(* ------------------------------------------------------------------ *)
(* Generic traversals                                                  *)
(* ------------------------------------------------------------------ *)

let rec iter_stmts f stmts =
  List.iter
    (fun s ->
      f s;
      match s.node with
      | Assign _ | Exit _ | Cycle _ -> ()
      | If (_, t, e) ->
          iter_stmts f t;
          iter_stmts f e
      | Do d -> iter_stmts f d.body)
    stmts

let iter_program f (p : program) = iter_stmts f p.body

(** All statements of [p] in preorder. *)
let all_stmts (p : program) : stmt list =
  let acc = ref [] in
  iter_program (fun s -> acc := s :: !acc) p;
  List.rev !acc

(** The statement with id [sid], found by walking the whole program on
    every call; a pass holding a {!Nest.t} reads its table instead
    ({!Nest.find_stmt}). *)
let find_stmt (p : program) (sid : stmt_id) : stmt option =
  let found = ref None in
  iter_program (fun s -> if s.sid = sid then found := Some s) p;
  !found

(** Fold over every expression appearing in a statement's own node (not in
    nested statements): the rhs and lhs subscripts of assignments, the
    condition of [If], the bounds of [Do]. *)
let own_exprs (s : stmt) : expr list =
  match s.node with
  | Assign (LVar _, rhs) -> [ rhs ]
  | Assign (LArr (_, subs), rhs) -> subs @ [ rhs ]
  | If (c, _, _) -> [ c ]
  | Do d -> [ d.lo; d.hi; d.step ]
  | Exit _ | Cycle _ -> []

let rec iter_expr f (e : expr) =
  f e;
  match e with
  | Int _ | Real _ | Bool _ | Var _ -> ()
  | Arr (_, subs) -> List.iter (iter_expr f) subs
  | Bin (_, a, b) | Intrin (_, a, b) ->
      iter_expr f a;
      iter_expr f b
  | Un (_, a) -> iter_expr f a

(** Variables read by an expression (array bases included, with duplicates
    removed, in first-occurrence order). *)
let expr_vars (e : expr) : string list =
  let acc = ref [] in
  let add v = if not (List.mem v !acc) then acc := v :: !acc in
  iter_expr
    (function Var v -> add v | Arr (a, _) -> add a | _ -> ())
    e;
  List.rev !acc

let rec equal_expr (a : expr) (b : expr) =
  match (a, b) with
  | Int x, Int y -> x = y
  | Real x, Real y -> Float.equal x y
  | Bool x, Bool y -> x = y
  | Var x, Var y -> String.equal x y
  | Arr (x, xs), Arr (y, ys) ->
      String.equal x y
      && List.length xs = List.length ys
      && List.for_all2 equal_expr xs ys
  | Bin (o, x1, x2), Bin (o', y1, y2) ->
      o = o' && equal_expr x1 y1 && equal_expr x2 y2
  | Un (o, x), Un (o', y) -> o = o' && equal_expr x y
  | Intrin (o, x1, x2), Intrin (o', y1, y2) ->
      o = o' && equal_expr x1 y1 && equal_expr x2 y2
  | ( ( Int _ | Real _ | Bool _ | Var _ | Arr _ | Bin _ | Un _
      | Intrin _ ),
      _ ) ->
      false

(* ------------------------------------------------------------------ *)
(* Declarations lookup helpers                                         *)
(* ------------------------------------------------------------------ *)

let find_decl (p : program) (name : string) : decl option =
  List.find_opt (fun d -> String.equal d.dname name) p.decls

let is_array (p : program) (name : string) : bool =
  match find_decl p name with Some d -> d.shape <> [] | None -> false

let param_value (p : program) (name : string) : int option =
  List.assoc_opt name p.params

(** Substitute parameter names by their integer values in an expression. *)
let rec subst_params (p : program) (e : expr) : expr =
  match e with
  | Var v -> ( match param_value p v with Some n -> Int n | None -> e)
  | Int _ | Real _ | Bool _ -> e
  | Arr (a, subs) -> Arr (a, List.map (subst_params p) subs)
  | Bin (o, a, b) -> Bin (o, subst_params p a, subst_params p b)
  | Un (o, a) -> Un (o, subst_params p a)
  | Intrin (o, a, b) -> Intrin (o, subst_params p a, subst_params p b)

(** Evaluate a compile-time constant integer expression, if possible. *)
let rec const_int_opt (p : program) (e : expr) : int option =
  let ( let* ) = Option.bind in
  match e with
  | Int n -> Some n
  | Var v -> param_value p v
  | Bin (op, a, b) -> (
      let* a = const_int_opt p a in
      let* b = const_int_opt p b in
      match op with
      | Add -> Some (a + b)
      | Sub -> Some (a - b)
      | Mul -> Some (a * b)
      | Div -> if b = 0 then None else Some (a / b)
      | Pow | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> None)
  | Un (Neg, a) ->
      let* a = const_int_opt p a in
      Some (-a)
  | Intrin (op, a, b) -> (
      let* a = const_int_opt p a in
      let* b = const_int_opt p b in
      match op with
      | Min2 -> Some (min a b)
      | Max2 -> Some (max a b)
      | Mod2 -> if b = 0 then None else Some (a mod b))
  | Real _ | Bool _ | Arr _ | Un _ -> None
