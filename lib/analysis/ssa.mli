(** Static single assignment form (Cytron et al., the paper's [5]):
    minimal SSA over the {!Cfg}, with φ-functions on iterated dominance
    frontiers and a dominator-tree renaming walk.  Arrays participate
    with update semantics.

    The paper's algorithm works in terms of original variables:
    {!reached_uses} and {!reaching_defs} collapse φ-functions, reporting
    whether a value crossed a loop back edge on the way (the
    privatizability test's loop-carried-flow question).  {!build}
    answers {!reached_uses} for every definition of a scalar up front:
    it condenses each scalar's φ graph into strongly connected
    components and merges their reached uses sinks first, so a query is
    an array read.  The builder interns the variable names once and
    keeps every per-node table in flat arrays. *)

type def_id = int

type def_site =
  | Entry_def of string  (** the variable's value on program entry *)
  | Node_def of { node : int; var : string }  (** a real definition *)
  | Phi of { node : int; var : string; mutable args : (int * def_id) list }
      (** [args]: CFG predecessor -> incoming definition *)

(** A use of a definition's value after φ-collapse; [back_edges] lists
    the loop-head nodes whose back edge the value crossed (loops that
    carry the flow into a later iteration). *)
type use_info = { use_node : int; use_var : string; back_edges : int list }

(** The per-node tables: the definition reaching each use, the real
    definitions and the φs of every node, over interned names. *)
type tables

type t = {
  cfg : Cfg.t;
  dom : Dom.t;
  defs : def_site array;
  tables : tables;
  reached : use_info list option array;
      (** {!reached_uses} of each scalar's definitions, [None] for an
          array's; filled by {!build}, never changed afterwards *)
}

val def_var : t -> def_id -> string
val def_node : t -> def_id -> int option
val is_phi : t -> def_id -> bool

(** Is [pred -> node] a loop back edge?  (In our structured CFGs: the
    [Loop_step -> Loop_head] edge of a loop.) *)
val is_back_edge : Cfg.t -> pred:int -> node:int -> bool

val build : Cfg.t -> t

(** The SSA definition reaching the use of [var] at a node. *)
val reaching_def_at : t -> node:int -> var:string -> def_id option

(** The real definition made by a node, if any. *)
val def_at : t -> node:int -> var:string -> def_id option

(** The φ-function placed for a variable at a node, if any. *)
val phi_at : t -> node:int -> var:string -> def_id option

(** Fold over every use of a reachable node with the definition reaching
    it, in node order and, within a node, in variable order. *)
val fold_uses : t -> (node:int -> var:string -> def_id -> 'a -> 'a) -> 'a -> 'a

(** All real uses transitively reached by a definition of a scalar,
    sorted by use node: the union over every path through φ-functions,
    with the back edges crossed on any of them.  A table read;
    [Invalid_argument] for a definition of an array. *)
val reached_uses : t -> def_id -> use_info list

(** All real (or entry) definitions that may reach a use, φ-collapsed. *)
val reaching_defs : t -> node:int -> var:string -> def_id list

(** All real definitions of a variable. *)
val defs_of_var : t -> string -> def_id list

val pp_def : t -> Format.formatter -> def_id -> unit
