(** Data-dependence tests between array references: GCD, and interval
    bounding with affine (triangular) loop bounds; indices of loops
    shared by both references stay un-renamed.  Anything not disproved
    is conservatively a dependence. *)

open Hpf_lang

type var_bounds = { lo : Affine.t option; hi : Affine.t option }

(** Can [f = g] have a solution under the bounds environment? *)
val may_equal :
  env:(string * var_bounds) list -> Affine.t -> Affine.t -> bool

type ref_ctx = { sid : Ast.stmt_id; base : string; subs : Ast.expr list }

(** May the write and the read touch a common element?  [shared_level] =
    number of outermost loops whose index is common to both (same
    iteration); deeper write indices are renamed apart. *)
val may_conflict :
  ?shared_level:int -> Ast.program -> Nest.t -> ref_ctx -> ref_ctx -> bool

(** Do writes of the read's array inside the loop possibly produce values
    the read consumes?  (If so, communication for the read cannot be
    vectorized out of that loop.)  Answered from the nest's per-loop
    write index ({!Nest.writes_in}): only the loop's writes of the read's
    base are tested, in program order, up to the first possible
    conflict; any write of a scalar base counts. *)
val write_feeds_read_in_loop :
  Ast.program -> Nest.t -> Nest.loop_info -> ref_ctx -> bool
