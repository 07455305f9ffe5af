(** Concrete ownership and executing-processor sets under a set of
    privatization decisions, evaluated against a runtime memory — the
    runtime counterpart of {!Phpf_core.Decisions.owner_spec} (non-affine
    subscripts resolve exactly here). *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping
open Phpf_core

type dims = Ownership.concrete_dim array

val all_dims : Layout.env -> dims

(** Owner of a reference.  [as_def] selects the definition-side mapping
    for a scalar lhs; grid dims in [skip_dims] come out [C_all] without
    evaluating their subscripts (widened reduction mappings may reference
    indices out of scope at the statement). *)
val owner :
  Decisions.t ->
  Memory.t ->
  ?as_def:bool ->
  ?skip_dims:int list ->
  ?widen_var:(string -> bool) ->
  ?depth:int ->
  Aref.t ->
  dims

(** Closed-form processor set of per-dimension coordinates (no cartesian
    expansion). *)
val set_of_dims : Layout.env -> dims -> Pid_set.t

(** Processors executing a statement in the current iteration ([G_union]
    resolves against the iteration's sibling statements); iteration
    order is ascending linear ids. *)
val executing_set : Decisions.t -> Memory.t -> Ast.stmt -> Pid_set.t
