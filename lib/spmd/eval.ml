(** Expression compilation over a {!Memory.layout}.

    Each expression is resolved once per run into one closure per node:
    scalars read their slot, array references fill one reused subscript
    buffer and read their cell, operators are specialized.  Evaluation
    order and checks are fixed: a binary operator or intrinsic
    evaluates its right operand first, subscripts go left to right, and
    the array is looked up after its subscripts.

    Numeric semantics follow Fortran: integer arithmetic on two integers,
    promotion to real otherwise; [/] truncates on integers. *)

open Hpf_lang

let binop (op : Ast.binop) (a : Value.t) (b : Value.t) : Value.t =
  let arith fi ff : Value.t =
    match (a, b) with
    | Value.I x, Value.I y -> Value.I (fi x y)
    | _ -> Value.R (ff (Value.to_float a) (Value.to_float b))
  in
  let cmp f : Value.t =
    match (a, b) with
    | Value.I x, Value.I y -> Value.B (f (compare x y) 0)
    | _ -> Value.B (f (compare (Value.to_float a) (Value.to_float b)) 0)
  in
  match op with
  | Ast.Add -> arith ( + ) ( +. )
  | Ast.Sub -> arith ( - ) ( -. )
  | Ast.Mul -> arith ( * ) ( *. )
  | Ast.Div -> (
      match (a, b) with
      | Value.I x, Value.I y ->
          if y = 0 then Memory.rerr "integer division by zero"
          else Value.I (x / y)
      | _ -> Value.R (Value.to_float a /. Value.to_float b))
  | Ast.Pow -> (
      match (a, b) with
      | Value.I x, Value.I y when y >= 0 ->
          let rec pow acc n = if n = 0 then acc else pow (acc * x) (n - 1) in
          Value.I (pow 1 y)
      | _ -> Value.R (Float.pow (Value.to_float a) (Value.to_float b)))
  | Ast.Eq -> cmp ( = )
  | Ast.Ne -> cmp ( <> )
  | Ast.Lt -> cmp ( < )
  | Ast.Le -> cmp ( <= )
  | Ast.Gt -> cmp ( > )
  | Ast.Ge -> cmp ( >= )
  | Ast.And -> Value.B (Value.to_bool a && Value.to_bool b)
  | Ast.Or -> Value.B (Value.to_bool a || Value.to_bool b)

let unop (op : Ast.unop) (a : Value.t) : Value.t =
  match (op, a) with
  | Ast.Neg, Value.I n -> Value.I (-n)
  | Ast.Neg, _ -> Value.R (-.Value.to_float a)
  | Ast.Not, _ -> Value.B (not (Value.to_bool a))
  | Ast.Abs, Value.I n -> Value.I (abs n)
  | Ast.Abs, _ -> Value.R (Float.abs (Value.to_float a))
  | Ast.Sqrt, _ -> Value.R (sqrt (Value.to_float a))
  | Ast.Exp, _ -> Value.R (exp (Value.to_float a))
  | Ast.Log, _ -> Value.R (log (Value.to_float a))
  | Ast.Sign, Value.I n -> Value.I (compare n 0)
  | Ast.Sign, _ -> Value.R (if Value.to_float a >= 0.0 then 1.0 else -1.0)

let intrin (op : Ast.intrin2) (a : Value.t) (b : Value.t) : Value.t =
  match (op, a, b) with
  | Ast.Min2, Value.I x, Value.I y -> Value.I (min x y)
  | Ast.Max2, Value.I x, Value.I y -> Value.I (max x y)
  | Ast.Mod2, Value.I x, Value.I y ->
      if y = 0 then Memory.rerr "mod by zero" else Value.I (x mod y)
  | Ast.Min2, _, _ -> Value.R (Float.min (Value.to_float a) (Value.to_float b))
  | Ast.Max2, _, _ -> Value.R (Float.max (Value.to_float a) (Value.to_float b))
  | Ast.Mod2, _, _ ->
      Value.R (Float.rem (Value.to_float a) (Value.to_float b))

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type 'a code = Memory.t -> 'a

(* A comparison operator applied to a [compare] result. *)
let cmp_int (op : Ast.binop) (c : int) : bool =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Ne -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow | Ast.And | Ast.Or ->
      invalid_arg "Eval.cmp_int"

let read_slot (i : int) : Value.t code =
 fun m ->
  if Bytes.unsafe_get m.Memory.bound i <> '\000' then
    Array.unsafe_get m.Memory.vals i
  else Memory.get_slot m i

let rec compile (l : Memory.layout) (e : Ast.expr) : Value.t code =
  match e with
  | Ast.Int n ->
      let v = Value.I n in
      fun _ -> v
  | Ast.Real f ->
      let v = Value.R f in
      fun _ -> v
  | Ast.Bool b ->
      let v = Value.B b in
      fun _ -> v
  | Ast.Var v -> (
      match Memory.slot l v with
      | Some i -> read_slot i
      | None -> fun _ -> Memory.rerr "read of unbound scalar %s" v)
  | Ast.Arr (a, subs) -> (
      let idx = index l subs in
      match Memory.cell l a with
      | Some ci -> fun m -> Memory.read_elem m ci (idx m)
      | None ->
          fun m ->
            ignore (idx m);
            Memory.rerr "read of unbound array %s" a)
  | Ast.Bin (op, a, b) -> (
      let ca = compile l a and cb = compile l b in
      match op with
      | Ast.Add -> (
          fun m ->
            let y = cb m in
            let x = ca m in
            match (x, y) with
            | Value.I p, Value.I q -> Value.I (p + q)
            | _ -> Value.R (Value.to_float x +. Value.to_float y))
      | Ast.Sub -> (
          fun m ->
            let y = cb m in
            let x = ca m in
            match (x, y) with
            | Value.I p, Value.I q -> Value.I (p - q)
            | _ -> Value.R (Value.to_float x -. Value.to_float y))
      | Ast.Mul -> (
          fun m ->
            let y = cb m in
            let x = ca m in
            match (x, y) with
            | Value.I p, Value.I q -> Value.I (p * q)
            | _ -> Value.R (Value.to_float x *. Value.to_float y))
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
          let c = compare_code op ca cb in
          let t = Value.B true and f = Value.B false in
          fun m -> if c m then t else f
      | Ast.Div | Ast.Pow | Ast.And | Ast.Or ->
          fun m ->
            let y = cb m in
            let x = ca m in
            binop op x y)
  | Ast.Un (op, a) ->
      let ca = compile l a in
      fun m -> unop op (ca m)
  | Ast.Intrin (op, a, b) ->
      let ca = compile l a and cb = compile l b in
      fun m ->
        let y = cb m in
        let x = ca m in
        intrin op x y

(* A comparison straight to a boolean: no intermediate [Value.B]. *)
and compare_code (op : Ast.binop) (ca : Value.t code) (cb : Value.t code) :
    bool code =
 fun m ->
  let y = cb m in
  let x = ca m in
  match (x, y) with
  | Value.I p, Value.I q -> cmp_int op (compare p q)
  | _ -> cmp_int op (compare (Value.to_float x) (Value.to_float y))

(* Subscripts, left to right, into one buffer owned by this reference. *)
and index (l : Memory.layout) (subs : Ast.expr list) : int array code =
  let cs = Array.of_list (List.map (compile_int l) subs) in
  let buf = Array.make (Array.length cs) 0 in
  fun m ->
    for d = 0 to Array.length cs - 1 do
      Array.unsafe_set buf d ((Array.unsafe_get cs d) m)
    done;
    buf

and compile_int (l : Memory.layout) (e : Ast.expr) : int code =
  match e with
  | Ast.Int n -> fun _ -> n
  | _ ->
      let c = compile l e in
      fun m -> Value.to_int (c m)

let compile_bool (l : Memory.layout) (e : Ast.expr) : bool code =
  match e with
  | Ast.Bin (((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b)
    ->
      compare_code op (compile l a) (compile l b)
  | _ ->
      let c = compile l e in
      fun m -> Value.to_bool (c m)

(** Static count of arithmetic operations in an expression (for the
    timing model). *)
let rec flops (e : Ast.expr) : int =
  match e with
  | Ast.Int _ | Ast.Real _ | Ast.Bool _ | Ast.Var _ -> 0
  | Ast.Arr (_, subs) -> List.fold_left (fun a s -> a + flops s) 1 subs
  | Ast.Bin (_, a, b) | Ast.Intrin (_, a, b) -> 1 + flops a + flops b
  | Ast.Un (_, a) -> 1 + flops a

(** Flop count of a statement's own expressions. *)
let stmt_flops (s : Ast.stmt) : int =
  List.fold_left (fun acc e -> acc + flops e) 1 (Ast.own_exprs s)
