(** Program memory: scalar slots and dense Fortran-style arrays.

    Every name a run touches is resolved once, into a {!layout}: one
    slot per scalar name (declared scalars, parameters, loop indices,
    every other assigned or read name, and whatever extra names the
    caller supplies, such as the lowered program's crossed indices) and
    one cell index per declared array.  A memory is an array of scalar
    values with a bound mask plus one cell per array, so the compiled
    evaluator ({!Eval}) reads and writes by index and never hashes a
    name.  All memories of a run share one layout.

    Arrays are stored flat in row-major order of the (lo..hi) dimension
    ranges, in unboxed typed storage ({!Bigarray.Array1} for numerics,
    [Bytes] for booleans) with precomputed per-dimension strides.
    {!Value.t} exists only at the language boundary: it is converted to
    the declared element type on every write — array elements and
    declared scalars alike — and reconstructed on read. *)

open Hpf_lang

type store =
  | S_real of (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
  | S_int of (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
  | S_bool of Bytes.t

type array_cell = {
  store : store;
  shape : Types.shape;
  los : int array;
  his : int array;
  strides : int array;  (* row-major: strides.(rank-1) = 1 *)
  size : int;
}

type layout = {
  slot_names : string array;
  slot_tys : Types.elt_type option array;
      (* the declared type a write converts to; [None] stores the value
         as given (loop indices, parameters, undeclared names) *)
  slots : (string, int) Hashtbl.t;
  init_vals : Value.t array;  (* zero of declared scalars, parameters *)
  init_bound : Bytes.t;
  cell_names : string array;
  cell_decls : (Types.elt_type * Types.shape) array;
  cells_of : (string, int) Hashtbl.t;
}

type t = {
  layout : layout;
  vals : Value.t array;
  bound : Bytes.t;
  cells : array_cell array;
}

exception
  Runtime_error of {
    loc : Loc.t option;
    sid : Ast.stmt_id option;
    msg : string;
  }

let rerr fmt =
  Fmt.kstr (fun s -> raise (Runtime_error { loc = None; sid = None; msg = s })) fmt

(** Run [f] and stamp any {!Runtime_error} it raises with statement
    [s]'s identity (source location when the statement carries one).
    Already-stamped errors pass through, so the innermost executing
    statement wins. *)
let locate_errors (s : Ast.stmt) (f : unit -> 'a) : 'a =
  try f ()
  with Runtime_error { loc = _; sid = None; msg } ->
    let msg =
      match s.Ast.loc with
      | Some _ -> msg
      | None -> Fmt.str "%s (in statement s%d)" msg s.Ast.sid
    in
    raise (Runtime_error { loc = s.Ast.loc; sid = Some s.Ast.sid; msg })

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let layout ?(names = []) ?(indices = []) (prog : Ast.program) : layout =
  let order = ref [] and slots = Hashtbl.create 32 in
  let add v =
    if not (Hashtbl.mem slots v) then begin
      Hashtbl.replace slots v (Hashtbl.length slots);
      order := v :: !order
    end
  in
  let loop_idx = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace loop_idx v ()) indices;
  let expr = Ast.iter_expr (function Ast.Var v -> add v | _ -> ()) in
  List.iter
    (fun (d : Ast.decl) -> if d.Ast.shape = [] then add d.Ast.dname)
    prog.Ast.decls;
  List.iter (fun (n, _) -> add n) prog.Ast.params;
  Ast.iter_program
    (fun s ->
      (match s.Ast.node with
      | Ast.Assign (Ast.LVar x, _) -> add x
      | Ast.Do d ->
          add d.Ast.index;
          Hashtbl.replace loop_idx d.Ast.index ()
      | Ast.Assign (Ast.LArr _, _) | Ast.If _ | Ast.Exit _ | Ast.Cycle _ -> ());
      List.iter expr (Ast.own_exprs s))
    prog;
  List.iter add names;
  List.iter add indices;
  let slot_names = Array.of_list (List.rev !order) in
  let n = Array.length slot_names in
  let slot_tys = Array.make n None in
  let init_vals = Array.make n (Value.I 0) in
  let init_bound = Bytes.make n '\000' in
  List.iter
    (fun (d : Ast.decl) ->
      if d.Ast.shape = [] then begin
        let i = Hashtbl.find slots d.Ast.dname in
        init_vals.(i) <- Value.zero d.Ast.ty;
        Bytes.set init_bound i '\001';
        if
          (not (Hashtbl.mem loop_idx d.Ast.dname))
          && not (List.mem_assoc d.Ast.dname prog.Ast.params)
        then slot_tys.(i) <- Some d.Ast.ty
      end)
    prog.Ast.decls;
  (* parameters are readable as integer scalars *)
  List.iter
    (fun (p, v) ->
      let i = Hashtbl.find slots p in
      init_vals.(i) <- Value.I v;
      Bytes.set init_bound i '\001')
    prog.Ast.params;
  let arrays = List.filter (fun (d : Ast.decl) -> d.Ast.shape <> []) prog.Ast.decls in
  let cells_of = Hashtbl.create 16 in
  List.iteri (fun i (d : Ast.decl) -> Hashtbl.replace cells_of d.Ast.dname i) arrays;
  {
    slot_names;
    slot_tys;
    slots;
    init_vals;
    init_bound;
    cell_names = Array.of_list (List.map (fun (d : Ast.decl) -> d.Ast.dname) arrays);
    cell_decls =
      Array.of_list (List.map (fun (d : Ast.decl) -> (d.Ast.ty, d.Ast.shape)) arrays);
    cells_of;
  }

let slot (l : layout) (v : string) : int option = Hashtbl.find_opt l.slots v
let slot_name (l : layout) (i : int) : string = l.slot_names.(i)
let slot_count (l : layout) : int = Array.length l.slot_names
let cell_count (l : layout) : int = Array.length l.cell_names
let cell (l : layout) (a : string) : int option = Hashtbl.find_opt l.cells_of a
let cell_name (l : layout) (i : int) : string = l.cell_names.(i)
let layout_of (m : t) : layout = m.layout

(* ------------------------------------------------------------------ *)
(* Creation and copying                                                *)
(* ------------------------------------------------------------------ *)

let make_cell (ty : Types.elt_type) (shape : Types.shape) : array_cell =
  let rank = List.length shape in
  let los = Array.make rank 0 and his = Array.make rank 0 in
  List.iteri
    (fun i (b : Types.bounds) ->
      los.(i) <- b.Types.lo;
      his.(i) <- b.Types.hi)
    shape;
  let strides = Array.make rank 1 in
  for d = rank - 2 downto 0 do
    strides.(d) <- strides.(d + 1) * (his.(d + 1) - los.(d + 1) + 1)
  done;
  let size = Types.size shape in
  let store =
    match ty with
    | Types.TReal ->
        let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout size in
        Bigarray.Array1.fill a 0.0;
        S_real a
    | Types.TInt ->
        let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout size in
        Bigarray.Array1.fill a 0;
        S_int a
    | Types.TBool -> S_bool (Bytes.make size '\000')
  in
  { store; shape; los; his; strides; size }

let create_in (l : layout) : t =
  {
    layout = l;
    vals = Array.copy l.init_vals;
    bound = Bytes.copy l.init_bound;
    cells = Array.map (fun (ty, shape) -> make_cell ty shape) l.cell_decls;
  }

(** Fresh memory with every declared variable zero-initialized and
    parameters bound as integer scalars, over [prog]'s own layout. *)
let create (prog : Ast.program) : t = create_in (layout prog)

let copy_cell (c : array_cell) : array_cell =
  let store =
    match c.store with
    | S_real a ->
        let b =
          Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout c.size
        in
        Bigarray.Array1.blit a b;
        S_real b
    | S_int a ->
        let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout c.size in
        Bigarray.Array1.blit a b;
        S_int b
    | S_bool b -> S_bool (Bytes.copy b)
  in
  { c with store }

let copy (m : t) : t =
  {
    layout = m.layout;
    vals = Array.copy m.vals;
    bound = Bytes.copy m.bound;
    cells = Array.map copy_cell m.cells;
  }

(* ------------------------------------------------------------------ *)
(* Scalars                                                             *)
(* ------------------------------------------------------------------ *)

(* Total conversions at the storage boundary, one table for array
   elements and declared scalars: whatever Value arrives is stored in
   the declared type.  An already well-typed value is returned as is. *)
let convert (ty : Types.elt_type) (x : Value.t) : Value.t =
  match (ty, x) with
  | Types.TReal, Value.R _ | Types.TInt, Value.I _ | Types.TBool, Value.B _ -> x
  | Types.TReal, Value.I n -> Value.R (float_of_int n)
  | Types.TReal, Value.B b -> Value.R (if b then 1.0 else 0.0)
  | Types.TInt, Value.R f -> Value.I (int_of_float f)
  | Types.TInt, Value.B b -> Value.I (if b then 1 else 0)
  | Types.TBool, Value.I n -> Value.B (n <> 0)
  | Types.TBool, Value.R f -> Value.B (f <> 0.0)

let unbound (m : t) (i : int) : 'a =
  rerr "read of unbound scalar %s" m.layout.slot_names.(i)

let get_slot (m : t) (i : int) : Value.t =
  if Bytes.unsafe_get m.bound i <> '\000' then Array.unsafe_get m.vals i
  else unbound m i

let set_slot (m : t) (i : int) (x : Value.t) : unit =
  let x =
    match Array.unsafe_get m.layout.slot_tys i with
    | None -> x
    | Some ty -> convert ty x
  in
  Array.unsafe_set m.vals i x;
  Bytes.unsafe_set m.bound i '\001'

let holds (m : t) (i : int) (x : Value.t) : bool =
  Bytes.unsafe_get m.bound i <> '\000' && Array.unsafe_get m.vals i == x

let find_slot (m : t) (i : int) : Value.t option =
  if Bytes.get m.bound i <> '\000' then Some m.vals.(i) else None

let unbind_slot (m : t) (i : int) : unit = Bytes.set m.bound i '\000'

let get_scalar (m : t) (v : string) : Value.t =
  match Hashtbl.find_opt m.layout.slots v with
  | Some i -> get_slot m i
  | None -> rerr "read of unbound scalar %s" v

let set_scalar (m : t) (v : string) (x : Value.t) =
  match Hashtbl.find_opt m.layout.slots v with
  | Some i -> set_slot m i x
  | None -> rerr "write of unknown scalar %s" v

let scalars (m : t) : (string * Value.t) list =
  let out = ref [] in
  Array.iteri
    (fun i name ->
      if Bytes.get m.bound i <> '\000' then out := (name, m.vals.(i)) :: !out)
    m.layout.slot_names;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !out

let arrays (m : t) : string list =
  List.sort_uniq String.compare (Array.to_list m.layout.cell_names)

(* ------------------------------------------------------------------ *)
(* Array elements                                                      *)
(* ------------------------------------------------------------------ *)

let cell_rank (c : array_cell) : int = Array.length c.los

let read_off (c : array_cell) (off : int) : Value.t =
  match c.store with
  | S_real a -> Value.R (Bigarray.Array1.unsafe_get a off)
  | S_int a -> Value.I (Bigarray.Array1.unsafe_get a off)
  | S_bool b -> Value.B (Bytes.unsafe_get b off <> '\000')

let write_off (c : array_cell) (off : int) (x : Value.t) : unit =
  match c.store with
  | S_real a ->
      Bigarray.Array1.unsafe_set a off
        (match x with
        | Value.R f -> f
        | Value.I n -> float_of_int n
        | Value.B b -> if b then 1.0 else 0.0)
  | S_int a ->
      Bigarray.Array1.unsafe_set a off
        (match x with
        | Value.I n -> n
        | Value.R f -> int_of_float f
        | Value.B b -> if b then 1 else 0)
  | S_bool b ->
      Bytes.unsafe_set b off
        (match x with
        | Value.B v -> if v then '\001' else '\000'
        | Value.I n -> if n <> 0 then '\001' else '\000'
        | Value.R f -> if f <> 0.0 then '\001' else '\000')

(* Subscripts are checked in order: each one against its dimension's
   bounds, and a vector longer or shorter than the rank fails as a rank
   mismatch only once the subscripts before the excess are in range. *)
let offset_in (c : array_cell) (idx : int array) ~(pos : int) ~(len : int) :
    int =
  let rank = Array.length c.los in
  let off = ref 0 in
  for d = 0 to len - 1 do
    if d >= rank then rerr "rank mismatch in array access";
    let i = idx.(pos + d) in
    if i < c.los.(d) || i > c.his.(d) then
      rerr "subscript %d out of bounds %d:%d" i c.los.(d) c.his.(d);
    off := !off + ((i - c.los.(d)) * c.strides.(d))
  done;
  if len <> rank then rerr "rank mismatch in array access";
  !off

let offset (c : array_cell) (idx : int array) : int =
  offset_in c idx ~pos:0 ~len:(Array.length idx)

let read_elem (m : t) (ci : int) (idx : int array) : Value.t =
  let c = m.cells.(ci) in
  read_off c (offset c idx)

let write_elem (m : t) (ci : int) (idx : int array) (x : Value.t) : unit =
  let c = m.cells.(ci) in
  write_off c (offset c idx) x

let write_elem_at (m : t) (ci : int) (idx : int array) ~(pos : int)
    ~(len : int) (x : Value.t) : unit =
  let c = m.cells.(ci) in
  write_off c (offset_in c idx ~pos ~len) x

let find_cell (m : t) (a : string) ~(write : bool) : array_cell =
  match Hashtbl.find_opt m.layout.cells_of a with
  | Some i -> m.cells.(i)
  | None ->
      if write then rerr "write of unbound array %s" a
      else rerr "read of unbound array %s" a

let get_elem (m : t) (a : string) (idx : int list) : Value.t =
  let c = find_cell m a ~write:false in
  read_off c (offset c (Array.of_list idx))

let set_elem (m : t) (a : string) (idx : int list) (x : Value.t) =
  let c = find_cell m a ~write:true in
  write_off c (offset c (Array.of_list idx)) x

(* Walk every element of [c] in offset order, with its index vector in
   one reused buffer (the callee must copy it to keep it). *)
let iter_cell (c : array_cell) (f : int array -> int -> unit) : unit =
  let rank = Array.length c.los in
  let idx = Array.copy c.los in
  for off = 0 to c.size - 1 do
    f idx off;
    (* odometer step, innermost dimension fastest *)
    let d = ref (rank - 1) in
    while !d >= 0 && idx.(!d) = c.his.(!d) do
      idx.(!d) <- c.los.(!d);
      decr d
    done;
    if !d >= 0 then idx.(!d) <- idx.(!d) + 1
  done

let array_cell (m : t) (a : string) : array_cell =
  match Hashtbl.find_opt m.layout.cells_of a with
  | Some i -> m.cells.(i)
  | None -> rerr "unknown array %s" a

(** Iterate all (multi-index, value) pairs of an array. *)
let iter_elems (m : t) (a : string) (f : int list -> Value.t -> unit) =
  let c = array_cell m a in
  iter_cell c (fun idx off -> f (Array.to_list idx) (read_off c off))

let fill (m : t) (a : string) (f : int array -> Value.t) : unit =
  let c = array_cell m a in
  iter_cell c (fun idx off -> write_off c off (f idx))
