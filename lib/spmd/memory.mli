(** Program memory: scalar bindings and dense Fortran-style arrays
    (row-major over the declared lo..hi ranges), held in unboxed typed
    storage (Bigarray / Bytes) with precomputed strides.  {!Value.t}
    appears only at the language boundary: writes convert to the array's
    declared element type, reads reconstruct. *)

open Hpf_lang

type array_cell
(** Flat typed storage plus shape metadata, read and written through
    {!get_elem} / {!set_elem} and walked by {!iter_elems}. *)

type t = {
  scalars : (string, Value.t) Hashtbl.t;
  arrays : (string, array_cell) Hashtbl.t;
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

(** Fresh memory with every declared variable zero-initialized and
    parameters bound as integer scalars. *)
val create : Ast.program -> t

(** Deep copy (array contents included). *)
val copy : t -> t

(** @raise Runtime_error on unbound names or out-of-bounds subscripts. *)
val get_scalar : t -> string -> Value.t

val set_scalar : t -> string -> Value.t -> unit
val get_elem : t -> string -> int list -> Value.t
val set_elem : t -> string -> int list -> Value.t -> unit

(** [int array]-indexed fast paths (no per-access list allocation). *)
val get_elem_a : t -> string -> int array -> Value.t

val set_elem_a : t -> string -> int array -> Value.t -> unit

(** Iterate all (multi-index, value) pairs of an array. *)
val iter_elems : t -> string -> (int list -> Value.t -> unit) -> unit
