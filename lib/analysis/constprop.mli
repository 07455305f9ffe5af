(** Sparse constant propagation over SSA definitions (three-level
    lattice, optimistic worklist: a definition is re-evaluated only when
    a definition it reads changed).  Resolves loop bounds and induction
    variables' initial values. *)

open Hpf_lang

type value = VInt of int | VReal of float | VBool of bool

type lattice = Top | Const of value | Bottom

(** Constants compare with [compare] (a NaN constant meets itself). *)
val meet : lattice -> lattice -> lattice
val pp_value : Format.formatter -> value -> unit

type t = { ssa : Ssa.t; values : lattice array }

(** Evaluate an expression under a per-variable lattice lookup. *)
val eval_expr : (string -> lattice) -> Ast.expr -> lattice

val compute : Ssa.t -> t

(** Constant value of a variable at a use site, if known. *)
val const_at : t -> node:int -> var:string -> value option

val const_int_at : t -> node:int -> var:string -> int option

(** Constant produced by a definition, if known. *)
val def_value : t -> Ssa.def_id -> value option
