(** Reduction recognition: plain accumulations [s = s op e] for
    op ∈ {+, *, min, max}, and conditional min/max with location
    companions (DGEFA's partial-pivoting maxloc). *)

open Hpf_lang

type red_op = Rsum | Rprod | Rmax | Rmin

val pp_red_op : Format.formatter -> red_op -> unit

type red = {
  var : string;  (** the accumulator *)
  op : red_op;
  loop_sid : Ast.stmt_id;  (** innermost loop carrying the accumulation *)
  stmt_sid : Ast.stmt_id;  (** the accumulating assignment (or the If) *)
  contrib : Ast.expr;  (** the contributed expression *)
  loc_vars : (string * Ast.expr) list;
      (** companion location assignments of a conditional reduction *)
  conditional : bool;
}

(** Find the reductions of a program (candidates whose accumulator is
    written elsewhere in the loop are rejected).  [nest] is the
    program's loop nest. *)
val analyze : Nest.t -> Ast.program -> red list

(** The reduction accumulated by a given statement, if any. *)
val reduction_of_stmt : red list -> Ast.stmt_id -> red option
