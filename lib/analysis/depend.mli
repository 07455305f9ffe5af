(** Data-dependence tests between array references: GCD, and interval
    bounding with affine (triangular) loop bounds; indices of loops
    shared by both references stay un-renamed.  Anything not disproved
    is conservatively a dependence.

    The affine forms the tests read, every loop's bounds and every
    array assignment's subscripts inside a loop, are derived once per
    program by {!build}.  Indices are told apart by nesting level, which
    assumes what {!Hpf_lang.Sema} enforces: a nested loop never reuses
    an enclosing loop's index. *)

open Hpf_lang

(** The dependence forms of one program. *)
type forms

type t = {
  prog : Ast.program;
  nest : Nest.t;  (** the nest whose write index the queries read *)
  forms : forms;  (** filled by {!build}, never changed afterwards *)
}

(** Derive the forms of every statement of [prog]. *)
val build : Ast.program -> Nest.t -> t

type ref_ctx = { sid : Ast.stmt_id; base : string; subs : Ast.expr list }

(** May the write and the read touch a common element?  [shared_level] =
    number of outermost loops whose index is common to both (same
    iteration); deeper write indices are renamed apart. *)
val may_conflict : ?shared_level:int -> t -> ref_ctx -> ref_ctx -> bool

(** Do writes of the read's array inside the loop possibly produce values
    the read consumes?  (If so, communication for the read cannot be
    vectorized out of that loop.)  Answered from the nest's per-loop
    write index ({!Nest.writes_in}) and the writes' forms: only the
    loop's writes of the read's base are tested, in program order, up to
    the first possible conflict; any write of a scalar base counts. *)
val write_feeds_read_in_loop : t -> Nest.loop_info -> ref_ctx -> bool
