(** Program memory: scalar slots and dense Fortran-style arrays
    (row-major over the declared lo..hi ranges), held in unboxed typed
    storage (Bigarray / Bytes) with precomputed strides.

    Names are resolved once per run into a {!layout} shared by every
    memory of the run: the compiled evaluator ({!Eval}) and the runtimes
    address scalars by slot and arrays by cell index.  The name-keyed
    accessors ({!get_scalar}, {!set_elem}, {!iter_elems}, ...) serve
    seeding, payload application, validation and tests.  {!Value.t}
    appears only at the language boundary: every write converts to the
    declared type (array elements and declared scalars alike), reads
    reconstruct. *)

open Hpf_lang

type array_cell
(** Flat typed storage plus shape metadata. *)

(** A run's resolution of names to storage: one slot per scalar name,
    one cell per declared array.  Read-only once built, so the
    reference memory, every processor memory and every memory a
    recovery rebuilds share it. *)
type layout

(** A memory over a {!layout}.  The fields are the evaluator's: [vals]
    holds slot values, meaningful where [bound] is non-zero; [cells]
    holds one array per cell index.  Use the functions below to read
    and write them. *)
type t = private {
  layout : layout;
  vals : Value.t array;
  bound : Bytes.t;
  cells : array_cell array;
}

(** Raised on runtime faults (unbound names, out-of-bounds subscripts,
    division by zero, fuel exhaustion).  The interpreters stamp the
    statement being executed onto the error via {!locate_errors}, so
    errors escaping {!Seq_interp.run} / {!Spmd_interp.run} carry the
    source position ([loc]) of the offending statement when the program
    came from the parser, and its id otherwise. *)
exception
  Runtime_error of {
    loc : Loc.t option;
    sid : Ast.stmt_id option;
    msg : string;
  }

(** Raise {!Runtime_error} with a formatted message (no statement
    attached; the executing interpreter stamps one). *)
val rerr : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** [locate_errors s f] runs [f ()] and stamps statement [s] onto any
    unstamped {!Runtime_error} escaping it. *)
val locate_errors : Ast.stmt -> (unit -> 'a) -> 'a

(** {1 Layout} *)

(** [layout prog] gives a slot to every declared scalar, parameter,
    loop index and other scalar name [prog] reads or assigns, plus
    [names] and [indices]; a cell to every declared array.  A write to a
    declared scalar converts to its declared type unless the name is a
    parameter or a loop index ([prog]'s [DO] indices and [indices]),
    which store values as given. *)
val layout : ?names:string list -> ?indices:string list -> Ast.program -> layout

val slot : layout -> string -> int option
val slot_name : layout -> int -> string
val cell : layout -> string -> int option
val cell_name : layout -> int -> string
val slot_count : layout -> int
val cell_count : layout -> int
val layout_of : t -> layout

(** {1 Creation} *)

(** Fresh memory over a layout: declared scalars zero, parameters bound
    as integers, every other slot unbound, arrays zero. *)
val create_in : layout -> t

(** [create prog] is [create_in (layout prog)]. *)
val create : Ast.program -> t

(** Deep copy (array contents included), sharing the layout. *)
val copy : t -> t

(** {1 Slot access} *)

(** @raise Runtime_error [read of unbound scalar X] when unbound. *)
val get_slot : t -> int -> Value.t

(** Bind a slot, converting to the slot's declared type. *)
val set_slot : t -> int -> Value.t -> unit

(** [holds m i x]: slot [i] is bound to [x] itself (physical
    equality), so writing [x] there again changes nothing. *)
val holds : t -> int -> Value.t -> bool

val find_slot : t -> int -> Value.t option
val unbind_slot : t -> int -> unit

(** Value of a cell's element at an index vector (read left to right:
    each subscript bounds-checked, then the rank).
    @raise Runtime_error on a bad subscript or rank. *)
val read_elem : t -> int -> int array -> Value.t

val write_elem : t -> int -> int array -> Value.t -> unit

(** [write_elem_at m ci idx ~pos ~len x] is [write_elem m ci sub x] for
    the index vector [sub] held in [idx.(pos) .. idx.(pos + len - 1)],
    with the same checks and no copy. *)
val write_elem_at :
  t -> int -> int array -> pos:int -> len:int -> Value.t -> unit

(** Walk every element of an array in storage order with its index
    vector, which lives in one reused buffer. *)
val iter_cell : array_cell -> (int array -> int -> unit) -> unit

val read_off : array_cell -> int -> Value.t

(** Number of subscripts of the array. *)
val cell_rank : array_cell -> int

(** {1 Name-keyed access} *)

(** @raise Runtime_error on unbound names or out-of-bounds subscripts. *)
val get_scalar : t -> string -> Value.t

(** @raise Runtime_error when the name has no slot in the layout. *)
val set_scalar : t -> string -> Value.t -> unit

(** Bound scalars, by ascending name. *)
val scalars : t -> (string * Value.t) list

(** Declared arrays, by ascending name. *)
val arrays : t -> string list

val get_elem : t -> string -> int list -> Value.t
val set_elem : t -> string -> int list -> Value.t -> unit

(** The storage of a named array.
    @raise Runtime_error when the array is not declared. *)
val array_cell : t -> string -> array_cell

(** Iterate all (multi-index, value) pairs of an array. *)
val iter_elems : t -> string -> (int list -> Value.t -> unit) -> unit

(** [fill m a f] stores [f idx] at every element of [a], in storage
    order; [idx] is a reused buffer. *)
val fill : t -> string -> (int array -> Value.t) -> unit
