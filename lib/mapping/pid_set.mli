(** Closed-form processor sets over a grid: a rectangle (per dimension a
    fixed coordinate or the whole axis) or an explicit sorted pid list.
    Counting is O(rank) closed-form, membership is O(rank), and
    iteration yields ascending linear ids — the same order as a
    lexicographic cartesian expansion of the coordinates.

    A rectangle's [dims] array may be a buffer its producer refills: a
    set returned by a compiled guard ({!Hpf_spmd.Concrete}) is valid
    until that guard's next evaluation.  Copy it with {!to_list} to
    keep it longer. *)

type dim = D_one of int | D_all

type t =
  | Rect of { grid : Grid.t; dims : dim array }
  | Explicit of { grid : Grid.t; pids : int list }  (** sorted ascending *)

val grid : t -> Grid.t

(** The whole machine. *)
val all : Grid.t -> t

val of_dims : Grid.t -> dim array -> t

(** Explicit set from an arbitrary pid list (deduplicated, sorted). *)
val of_list : Grid.t -> int list -> t

(** Cardinality, closed form for rectangles. *)
val count : t -> int

val is_empty : t -> bool
val is_all : t -> bool

(** Smallest linear pid (head of the legacy expansion); [None] only for
    an empty explicit set. *)
val first : t -> int option

val mem : t -> int -> bool

(** Iterate pids in ascending linear-id order.  A rectangle is walked
    without allocating; a fixed coordinate outside its axis fails the
    same assertion as {!Grid.linearize}. *)
val iter : (int -> unit) -> t -> unit

val to_list : t -> int list

(** Set union; all-absorbing, otherwise explicit sorted merge. *)
val union : t -> t -> t

val pp : Format.formatter -> t -> unit
