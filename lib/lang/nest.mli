(** Loop-nest structure: the enclosing-loop context of every statement.
    Nesting levels follow the paper's convention — the outermost loop of
    a nest is level 1; level 0 means "outside all loops".  The same walk
    indexes every statement by id and every loop's assignments by base
    and nested loop indices; a built [t] is never mutated. *)

open Ast

type loop_info = {
  loop_sid : stmt_id;
  loop : do_loop;
  level : int;  (** 1-based nesting depth *)
}

type t = {
  enclosing : (stmt_id, loop_info list) Hashtbl.t;
      (** per statement: enclosing loops, outermost first (a [Do] does
          not enclose itself) *)
  loops : loop_info list;  (** all loops, preorder *)
  parent : (stmt_id, stmt_id) Hashtbl.t;
      (** innermost enclosing structured statement *)
  stmts : (stmt_id, stmt) Hashtbl.t;  (** every statement by id *)
  writes : (stmt_id, (string, stmt list) Hashtbl.t) Hashtbl.t;
      (** per loop: the assignments inside its body, nested loops
          included, by assigned base, in program order *)
  indices : (stmt_id, (string, unit) Hashtbl.t) Hashtbl.t;
      (** per loop: its own index and those of the loops nested in it *)
}

val build : program -> t

(** Enclosing loops of a statement, outermost first. *)
val enclosing_loops : t -> stmt_id -> loop_info list

(** Number of enclosing loops. *)
val level : t -> stmt_id -> int

(** The loop at 1-based nesting level [lv] around a statement. *)
val loop_at_level : t -> stmt_id -> int -> loop_info option

val innermost_loop : t -> stmt_id -> loop_info option
val find_loop : t -> stmt_id -> loop_info option

(** Does the loop with the given header enclose the statement? *)
val loop_encloses : t -> loop_sid:stmt_id -> stmt_id -> bool

(** Index variables of the enclosing loops, outermost first. *)
val enclosing_indices : t -> stmt_id -> string list

(** Innermost loop common to two statements. *)
val common_loop : t -> stmt_id -> stmt_id -> loop_info option

(** Number of common enclosing loops. *)
val common_level : t -> stmt_id -> stmt_id -> int

(** Is [v] the index of a loop enclosing the statement? *)
val is_enclosing_index : t -> stmt_id -> string -> bool

(** Level of the enclosing loop with index [v] (0 when none). *)
val index_level : t -> stmt_id -> string -> int

(** The statement with the given id, from the table {!build} fills. *)
val find_stmt : t -> stmt_id -> stmt option

(** The assignments to [base] inside the loop, nested loops included, in
    program order — what [Ast.iter_stmts] over the body visits, without
    the walk. *)
val writes_in : t -> loop_info -> string -> stmt list

(** Is [x] written inside the loop: assigned in its body (nested loops
    included), or the index of the loop or of a loop nested in it?
    Answered from the tables {!build} fills. *)
val written_in : t -> loop_info -> string -> bool
