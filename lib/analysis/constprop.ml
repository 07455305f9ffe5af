(** Sparse constant propagation over SSA definitions.

    A worklist evaluation on the three-level lattice [Top]
    (undetermined) / [Const v] / [Bottom] (varying): a definition is
    evaluated once, and again only when a definition it reads changed.
    A program parameter evaluates to its value.  Used to resolve loop
    bounds and the initial values of induction variables (paper §2.1:
    the closed form of [m] in Fig. 1 needs [m]'s value on loop
    entry). *)

open Hpf_lang

type value = VInt of int | VReal of float | VBool of bool

type lattice = Top | Const of value | Bottom

(* Constants are compared with [compare], so a NaN constant meets
   itself: the meet is idempotent, which makes the fixpoint independent
   of the evaluation order. *)
let meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Bottom, _ | _, Bottom -> Bottom
  | Const x, Const y -> if compare x y = 0 then a else Bottom

let pp_value ppf = function
  | VInt n -> Fmt.int ppf n
  | VReal f -> Fmt.float ppf f
  | VBool b -> Fmt.bool ppf b

type t = { ssa : Ssa.t; values : lattice array }

let to_float = function
  | VInt n -> float_of_int n
  | VReal f -> f
  | VBool _ -> nan

let eval_binop op a b =
  let open Ast in
  let arith fi ff =
    match (a, b) with
    | VInt x, VInt y -> Some (VInt (fi x y))
    | (VInt _ | VReal _), (VInt _ | VReal _) ->
        Some (VReal (ff (to_float a) (to_float b)))
    | _ -> None
  in
  let cmp f = Some (VBool (f (compare (to_float a) (to_float b)) 0)) in
  match op with
  | Add -> arith ( + ) ( +. )
  | Sub -> arith ( - ) ( -. )
  | Mul -> arith ( * ) ( *. )
  | Div -> (
      match (a, b) with
      | VInt _, VInt 0 -> None
      | VInt x, VInt y -> Some (VInt (x / y))
      | (VInt _ | VReal _), (VInt _ | VReal _) ->
          Some (VReal (to_float a /. to_float b))
      | _ -> None)
  | Pow -> Some (VReal (Float.pow (to_float a) (to_float b)))
  | Eq -> cmp ( = )
  | Ne -> cmp ( <> )
  | Lt -> cmp ( < )
  | Le -> cmp ( <= )
  | Gt -> cmp ( > )
  | Ge -> cmp ( >= )
  | And -> ( match (a, b) with VBool x, VBool y -> Some (VBool (x && y)) | _ -> None)
  | Or -> ( match (a, b) with VBool x, VBool y -> Some (VBool (x || y)) | _ -> None)

let eval_unop op a =
  let open Ast in
  match (op, a) with
  | Neg, VInt n -> Some (VInt (-n))
  | Neg, VReal f -> Some (VReal (-.f))
  | Not, VBool b -> Some (VBool (not b))
  | Abs, VInt n -> Some (VInt (abs n))
  | Abs, VReal f -> Some (VReal (Float.abs f))
  | Sqrt, v -> Some (VReal (sqrt (to_float v)))
  | Exp, v -> Some (VReal (exp (to_float v)))
  | Log, v -> Some (VReal (log (to_float v)))
  | Sign, VInt n -> Some (VInt (compare n 0))
  | Sign, VReal f -> Some (VReal (if f >= 0.0 then 1.0 else -1.0))
  | (Neg | Not | Abs | Sign), _ -> None

let eval_intrin op a b =
  let open Ast in
  match (op, a, b) with
  | Min2, VInt x, VInt y -> Some (VInt (min x y))
  | Max2, VInt x, VInt y -> Some (VInt (max x y))
  | Mod2, VInt x, VInt y when y <> 0 -> Some (VInt (x mod y))
  | Min2, _, _ -> Some (VReal (Float.min (to_float a) (to_float b)))
  | Max2, _, _ -> Some (VReal (Float.max (to_float a) (to_float b)))
  | Mod2, _, _ -> None

(** Evaluate an expression to a lattice value given per-variable lookup. *)
let rec eval_expr (lookup : string -> lattice) (e : Ast.expr) : lattice =
  match e with
  | Int n -> Const (VInt n)
  | Real f -> Const (VReal f)
  | Bool b -> Const (VBool b)
  | Var v -> lookup v
  | Arr _ -> Bottom
  | Bin (op, a, b) -> (
      match (eval_expr lookup a, eval_expr lookup b) with
      | Const x, Const y -> (
          match eval_binop op x y with Some v -> Const v | None -> Bottom)
      | Top, _ | _, Top -> Top
      | _ -> Bottom)
  | Un (op, a) -> (
      match eval_expr lookup a with
      | Const x -> (
          match eval_unop op x with Some v -> Const v | None -> Bottom)
      | l -> l)
  | Intrin (op, a, b) -> (
      match (eval_expr lookup a, eval_expr lookup b) with
      | Const x, Const y -> (
          match eval_intrin op x y with Some v -> Const v | None -> Bottom)
      | Top, _ | _, Top -> Top
      | _ -> Bottom)

(** Expression defining a real (node) definition, if it is a scalar
    assignment; loop init/step nodes yield their index expressions. *)
let def_rhs (g : Cfg.t) (site : Ssa.def_site) : Ast.expr option =
  match site with
  | Ssa.Node_def { node; var } -> (
      match (Cfg.node g node).kind with
      | Cfg.Simple { node = Assign (LVar v, rhs); _ } when v = var -> Some rhs
      | Cfg.Loop_init { node = Do d; _ } when d.index = var -> Some d.lo
      | Cfg.Loop_step { node = Do d; _ } when d.index = var ->
          Some (Bin (Add, Var d.index, d.step))
      | _ -> None)
  | Ssa.Entry_def _ | Ssa.Phi _ -> None

let compute (ssa : Ssa.t) : t =
  let g = ssa.Ssa.cfg in
  let prog = g.Cfg.prog in
  let defs = ssa.Ssa.defs in
  let n = Array.length defs in
  let values = Array.make n Top in
  let rhs_of = Array.map (def_rhs g) defs in
  let eval i =
    match defs.(i) with
    | Ssa.Entry_def _ -> Bottom (* uninitialized / external *)
    | Ssa.Phi { args; _ } ->
        if args = [] then Bottom
        else List.fold_left (fun acc (_, d) -> meet acc values.(d)) Top args
    | Ssa.Node_def { node; var = _ } -> (
        match rhs_of.(i) with
        | None -> Bottom (* array def or unanalyzed *)
        | Some rhs ->
            eval_expr
              (fun x ->
                (* a program parameter is its value *)
                match Ast.param_value prog x with
                | Some v -> Const (VInt v)
                | None -> (
                    match Ssa.reaching_def_at ssa ~node ~var:x with
                    | Some d -> values.(d)
                    | None -> Bottom))
              rhs)
  in
  (* The definitions that read each one, [readers.(start.(d))] up to
     [readers.(start.(d + 1) - 1)]: the φs it is an argument of, and the
     right-hand side at each node where it reaches a use (a node defines
     one scalar at most). *)
  let rhs_at = Array.make (Cfg.n_nodes g) (-1) in
  Array.iteri
    (fun i site ->
      match (site, rhs_of.(i)) with
      | Ssa.Node_def { node; _ }, Some _ -> rhs_at.(node) <- i
      | _ -> ())
    defs;
  let iter_reads f =
    Array.iteri
      (fun i site ->
        match site with
        | Ssa.Phi { args; _ } -> List.iter (fun (_, d) -> f d i) args
        | Ssa.Entry_def _ | Ssa.Node_def _ -> ())
      defs;
    Ssa.fold_uses ssa
      (fun ~node ~var:_ d () -> if rhs_at.(node) >= 0 then f d rhs_at.(node))
      ()
  in
  let start = Array.make (n + 1) 0 in
  iter_reads (fun d _ -> start.(d + 1) <- start.(d + 1) + 1);
  for d = 0 to n - 1 do
    start.(d + 1) <- start.(d + 1) + start.(d)
  done;
  let readers = Array.make start.(n) 0 and next = Array.sub start 0 n in
  iter_reads (fun d r ->
      readers.(next.(d)) <- r;
      next.(d) <- next.(d) + 1);
  (* a FIFO of the definitions to evaluate, each in it at most once:
     first all of them in order, then the readers of each change *)
  let queue = Array.init n Fun.id and queued = Array.make n true in
  let head = ref 0 and size = ref n in
  while !size > 0 do
    let i = queue.(!head) in
    head := (!head + 1) mod n;
    decr size;
    queued.(i) <- false;
    (* only move down the lattice *)
    let v' = meet values.(i) (eval i) in
    if compare v' values.(i) <> 0 then begin
      values.(i) <- v';
      for k = start.(i) to start.(i + 1) - 1 do
        let r = readers.(k) in
        (* a reader at the bottom stays there *)
        if not (queued.(r) || values.(r) = Bottom) then begin
          queued.(r) <- true;
          queue.((!head + !size) mod n) <- r;
          incr size
        end
      done
    end
  done;
  { ssa; values }

(** Constant value of [var] at the use site [node], if known. *)
let const_at (t : t) ~(node : int) ~(var : string) : value option =
  match Ssa.reaching_def_at t.ssa ~node ~var with
  | None -> None
  | Some d -> ( match t.values.(d) with Const v -> Some v | _ -> None)

let const_int_at (t : t) ~node ~var =
  match const_at t ~node ~var with Some (VInt n) -> Some n | _ -> None

(** Constant value produced by definition [d], if known. *)
let def_value (t : t) (d : Ssa.def_id) : value option =
  match t.values.(d) with Const v -> Some v | _ -> None
