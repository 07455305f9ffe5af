(** Ownership of references: who holds an array element or scalar.

    Compile-time view: {!owner_spec} gives, per grid dimension, the owner
    coordinate as an affine position pushed through a distribution
    format; {!relate} compares producer and consumer owners and drives
    communication classification.  Runtime view: {!owner_of_element}
    resolves concrete elements for the simulator. *)

open Hpf_lang
open Hpf_analysis

(** Per-grid-dimension symbolic owner. *)
type owner_dim =
  | O_all  (** replicated: available at every coordinate *)
  | O_fixed of int
  | O_affine of {
      fmt : Dist.format;
      nprocs : int;
      pos : Affine.t;  (** 0-based position; coord = owner_coord fmt pos *)
    }
  | O_unknown  (** non-affine subscript *)

type spec = owner_dim array

val pp_owner_dim : Format.formatter -> owner_dim -> unit
val pp_spec : Format.formatter -> spec -> unit

(** Symbolic owner of [base(subs)] (scalar when [subs = []]) in the
    context of the enclosing loop [indices]. *)
val owner_spec :
  Layout.env -> indices:string list -> string -> Ast.expr list -> spec

(** The paper's "dummy replicated reference": available everywhere. *)
val all_procs : Layout.env -> spec

val is_replicated_spec : spec -> bool
val is_partitioned_spec : spec -> bool

(** Producer-to-consumer owner relation along one grid dimension. *)
type dim_relation =
  | Same  (** provably the same coordinate for every iteration *)
  | Local  (** producer replicated (or a 1-processor dimension) *)
  | Shift of int  (** positions differ by a constant *)
  | To_all  (** consumer needs it at all coordinates *)
  | Irregular  (** anything else *)

val relate_dim : owner_dim -> owner_dim -> dim_relation
val relate : spec -> spec -> dim_relation array

(** The producer's value is already wherever the consumer runs. *)
val no_comm : dim_relation array -> bool

(** Concrete per-dimension coordinate set for one element. *)
type concrete_dim = C_all | C_one of int

(** Owner coordinates of the element of [base] at (Fortran) index
    vector [idx]. *)
val owner_of_element :
  Layout.env -> string -> int array -> concrete_dim array

(** Closed-form owned index interval along one [Layout.Mapped] binding:
    the distribution format's position-space span pulled back through a
    unit-stride alignment map [pos = istride * i + shift]. *)
type interval = {
  ilo : int;
  ihi : int;  (** index bounds of the array dimension *)
  shift : int;
  istride : int;  (** +1 or -1 *)
  pspan : Dist.span;  (** owned positions, all [>= pspan.start] *)
  pos_min : int;
  pos_max : int;
}

(** Owned indices of [coord] along a binding over an array dimension;
    [None] when no closed form applies (replicated/pinned bindings,
    non-unit strides, negative positions) — fall back to per-element
    {!Dist.owner_coord}. *)
val owned_interval :
  Layout.binding -> bounds:Types.bounds -> coord:int -> interval option

(** Closed-form cardinality. *)
val interval_count : interval -> int

(** O(1) membership of an array index. *)
val interval_mem : interval -> int -> bool

(** Iterate owned indices (ascending in position space). *)
val interval_iter : interval -> (int -> unit) -> unit

(** Does processor [pid] own the element? *)
val owns : Layout.env -> string -> int array -> int -> bool
