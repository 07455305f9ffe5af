(** Loop-level placement of communication (message vectorization).

    A communication hoists outward until a write inside the crossed loop
    feeds the read (true dependence), or a non-affine subscript's value
    stops being well defined ([VarLevel]).  This computation is what
    makes the paper's cost model "realistic ... taking into account the
    placement of communication". *)

open Hpf_lang
open Hpf_analysis

(** Innermost level the subscripts pin the communication to: 0 for
    affine subscripts (they aggregate), [VarLevel] for non-affine ones. *)
val subscript_constraint :
  Ast.program -> Nest.t -> sid:Ast.stmt_id -> Ast.expr list -> int

(** Loop level the communication for [data] (toward a consumer reference
    with [consumer_subs]) sits just inside; 0 = hoisted out of every
    loop. *)
val placement_level :
  Depend.t -> data:Aref.t -> consumer_subs:Ast.expr list -> int

(** Message-aggregation index variables: the data's subscript indices
    minus [exclude]. *)
val aggregation_vars : data:Aref.t -> exclude:string list -> string list

(** Elements per execution at [placement]: the product of the trips of
    the crossed loops whose index is in [vars]. *)
val elems_per_instance :
  Ast.program ->
  Nest.t ->
  data:Aref.t ->
  vars:string list ->
  placement:int ->
  int

(** Number of executions of the communication (iterations of the loops
    outside the placement). *)
val instances :
  Ast.program -> Nest.t -> data:Aref.t -> placement:int -> int
