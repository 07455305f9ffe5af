(** Expression compilation over a {!Memory.layout} (Fortran numeric
    semantics: integer arithmetic on two integers, promotion to real
    otherwise, truncating integer division).

    [compile l e] resolves [e]'s names once and returns one closure per
    node; run it against any memory over [l].  A binary operator or
    intrinsic evaluates its right operand first, subscripts go left to
    right, and an array is looked up after its subscripts.  A compiled
    array reference owns a subscript buffer, so its closures must not be
    shared across domains. *)

open Hpf_lang

type 'a code = Memory.t -> 'a

val binop : Ast.binop -> Value.t -> Value.t -> Value.t
val unop : Ast.unop -> Value.t -> Value.t
val intrin : Ast.intrin2 -> Value.t -> Value.t -> Value.t

(** The compiled expression raises {!Memory.Runtime_error} on unbound
    names, bad subscripts and division by zero. *)
val compile : Memory.layout -> Ast.expr -> Value.t code

val compile_int : Memory.layout -> Ast.expr -> int code
val compile_bool : Memory.layout -> Ast.expr -> bool code

(** Subscripts evaluated left to right into one buffer, reused (and
    overwritten) by every evaluation. *)
val index : Memory.layout -> Ast.expr list -> int array code

(** Static count of arithmetic operations (for the timing model). *)
val flops : Ast.expr -> int

(** Flop count of a statement's own expressions (nested statements not
    included). *)
val stmt_flops : Ast.stmt -> int
