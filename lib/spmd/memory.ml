(** Program memory: scalar bindings and dense Fortran-style arrays.

    Arrays are stored flat in row-major order of the (lo..hi) dimension
    ranges, in unboxed typed storage ({!Bigarray.Array1} for numerics,
    [Bytes] for booleans) with precomputed per-dimension strides, so an
    element access costs one multiply-add per rank instead of a list
    walk over boxed values.  {!Value.t} exists only at the language
    boundary: it is converted to the array's element type on write and
    reconstructed on read.  Loop indices live in the scalar table like
    any other integer scalar. *)

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

type t = {
  scalars : (string, Value.t) Hashtbl.t;
  arrays : (string, array_cell) Hashtbl.t;
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

(** Fresh memory with every declared variable zero-initialized. *)
let create (prog : Ast.program) : t =
  let m = { scalars = Hashtbl.create 16; arrays = Hashtbl.create 16 } in
  List.iter
    (fun (d : Ast.decl) ->
      if d.shape = [] then
        Hashtbl.replace m.scalars d.dname (Value.zero d.ty)
      else Hashtbl.replace m.arrays d.dname (make_cell d.ty d.shape))
    prog.decls;
  (* parameters are readable as integer scalars *)
  List.iter (fun (n, v) -> Hashtbl.replace m.scalars n (Value.I v)) prog.params;
  m

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
    scalars = Hashtbl.copy m.scalars;
    arrays =
      (let h = Hashtbl.create (Hashtbl.length m.arrays) in
       Hashtbl.iter (fun k c -> Hashtbl.add h k (copy_cell c)) m.arrays;
       h);
  }

let get_scalar (m : t) (v : string) : Value.t =
  match Hashtbl.find_opt m.scalars v with
  | Some x -> x
  | None -> rerr "read of unbound scalar %s" v

let set_scalar (m : t) (v : string) (x : Value.t) =
  Hashtbl.replace m.scalars v x

(* Total conversions at the storage boundary: whatever Value arrives, it
   is stored in the array's declared element type. *)
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

let offset_of_list (c : array_cell) (idx : int list) : int =
  let rank = Array.length c.los in
  let off = ref 0 and d = ref 0 in
  List.iter
    (fun i ->
      if !d >= rank then rerr "rank mismatch in array access";
      if i < c.los.(!d) || i > c.his.(!d) then
        rerr "subscript %d out of bounds %d:%d" i c.los.(!d) c.his.(!d);
      off := !off + ((i - c.los.(!d)) * c.strides.(!d));
      incr d)
    idx;
  if !d <> rank then rerr "rank mismatch in array access";
  !off

let offset_of_array (c : array_cell) (idx : int array) : int =
  let rank = Array.length c.los in
  if Array.length idx <> rank then rerr "rank mismatch in array access";
  let off = ref 0 in
  for d = 0 to rank - 1 do
    let i = idx.(d) in
    if i < c.los.(d) || i > c.his.(d) then
      rerr "subscript %d out of bounds %d:%d" i c.los.(d) c.his.(d);
    off := !off + ((i - c.los.(d)) * c.strides.(d))
  done;
  !off

let find_cell (m : t) (a : string) ~(write : bool) : array_cell =
  match Hashtbl.find_opt m.arrays a with
  | Some c -> c
  | None ->
      if write then rerr "write of unbound array %s" a
      else rerr "read of unbound array %s" a

let get_elem (m : t) (a : string) (idx : int list) : Value.t =
  let c = find_cell m a ~write:false in
  read_off c (offset_of_list c idx)

let set_elem (m : t) (a : string) (idx : int list) (x : Value.t) =
  let c = find_cell m a ~write:true in
  write_off c (offset_of_list c idx) x

(** [int array]-indexed fast paths: no per-access list allocation. *)
let get_elem_a (m : t) (a : string) (idx : int array) : Value.t =
  let c = find_cell m a ~write:false in
  read_off c (offset_of_array c idx)

let set_elem_a (m : t) (a : string) (idx : int array) (x : Value.t) =
  let c = find_cell m a ~write:true in
  write_off c (offset_of_array c idx) x

let array_cell (m : t) (a : string) : array_cell =
  match Hashtbl.find_opt m.arrays a with
  | Some c -> c
  | None -> rerr "unknown array %s" a

(** Iterate all (multi-index, value) pairs of an array. *)
let iter_elems (m : t) (a : string) (f : int list -> Value.t -> unit) =
  let c = array_cell m a in
  let rec go shape prefix offset =
    match shape with
    | [] -> f (List.rev prefix) (read_off c offset)
    | (b : Types.bounds) :: bs ->
        let inner = Types.size bs in
        for i = b.Types.lo to b.Types.hi do
          go bs (i :: prefix) (offset + ((i - b.Types.lo) * inner))
        done
  in
  go c.shape [] 0
