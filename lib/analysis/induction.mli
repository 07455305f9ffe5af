(** Induction-variable recognition and closed-form rewriting (paper
    Fig. 1's [m]): a scalar with a loop-header φ merging a constant
    initial value with one unconditional constant-step increment is
    rewritten — definition {e and} uses — to its closed form over the
    loop index, after which the mapping pass naturally privatizes it
    without alignment. *)

open Hpf_lang

type iv = {
  var : string;
  loop_sid : Ast.stmt_id;  (** the loop stepping the variable *)
  incr_sid : Ast.stmt_id;  (** the [v = v + c] statement *)
  phi_def : Ssa.def_id;
  incr_def : Ssa.def_id;
  step_const : int;
  init_value : int;
  closed_form : Ast.expr;  (** value {e after} the increment *)
  closed_before : Ast.expr;  (** value {e before} the increment *)
}

(** Recognize the induction variables of a program in SSA form. *)
val analyze : Ssa.t -> Constprop.t -> iv list

(** Rewrite increments and uses to closed forms (statement ids
    preserved); the program itself when there is no variable. *)
val rewrite : Ast.program -> Ssa.t -> iv list -> Ast.program

type result = {
  prog : Ast.program;  (** the rewritten program *)
  ivs : iv list;
  ssa : Ssa.t option;
      (** with no induction variable, the SSA of [prog], which is then
          the input physically unchanged; [None] after a rewrite *)
}

(** Build SSA, recognize, rewrite. *)
val run : Ast.program -> result
