(** Control-flow graph construction: the structured AST lowered so the
    classical SSA construction applies unchanged.  A [DO] expands into
    [Loop_init -> Loop_head -> body ... -> Loop_step -> Loop_head], with
    [Loop_head -> Join] the exit; [EXIT] jumps to the exit join, [CYCLE]
    to the step node. *)

open Hpf_lang

type node_kind =
  | Entry
  | Exit_node
  | Simple of Ast.stmt  (** [Assign], [Exit], [Cycle] *)
  | Branch of Ast.stmt  (** [If] condition evaluation *)
  | Loop_init of Ast.stmt  (** index := lo *)
  | Loop_head of Ast.stmt  (** trip test *)
  | Loop_step of Ast.stmt  (** index := index + step *)
  | Join of Ast.stmt_id option  (** merge after an [If] or a loop exit *)

type node = {
  id : int;
  kind : node_kind;
  mutable succs : int list;
  mutable preds : int list;
}

type t = {
  prog : Ast.program;
  nodes : node array;
  entry : int;
  exit_ : int;
  by_sid : (Ast.stmt_id, int list) Hashtbl.t;
}

val node : t -> int -> node
val n_nodes : t -> int

(** Statement id a node originates from, if any. *)
val sid_of_node : t -> int -> Ast.stmt_id option

(** Statement a node evaluates, if any ([Join]s only merge). *)
val stmt_of_node : t -> int -> Ast.stmt option

(** CFG nodes created for a statement (a [Do] yields init/head/step/join). *)
val nodes_of_sid : t -> Ast.stmt_id -> int list

exception Malformed of string

val build : Ast.program -> t

(** Is the variable tracked by SSA (not a compile-time parameter)? *)
val tracked : t -> string -> bool

(** The variables a node reads and writes, as {!uses} and {!defs} list
    them, without building lists: [read] once per occurrence, [write]
    once per variable written. *)
val iter_vars :
  t -> int -> read:(string -> unit) -> write:(string -> unit) -> unit

(** Variables written by a node (an array-element assignment defines —
    and also uses — the array name). *)
val defs : t -> int -> string list

(** Variables read by a node. *)
val uses : t -> int -> string list

(** All tracked variables of the program, sorted. *)
val variables : t -> string list

(** Reverse postorder of the nodes reachable from entry. *)
val reverse_postorder : t -> int list

val is_reachable : t -> bool array
val pp_kind : Format.formatter -> node_kind -> unit
val pp : Format.formatter -> t -> unit
