(** Whole-program communication analysis: every read reference's owner is
    compared with its consumer's (both supplied by an {!oracle}, so the
    privatization decisions of [Phpf_core] are reflected), the
    communication is classified and placed by {!Vectorize}, and
    recognized reductions emit their combining collective. *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping

(** Where a reference's value is needed. *)
type consumer = {
  cref : Aref.t option;
      (** the consumer reference; [None] = the dummy replicated
          reference (needed by all processors) *)
  spec : Ownership.spec;
}

type oracle = {
  owner_of : Aref.t -> Ownership.spec;
      (** owner of a reference's data under the privatized mappings *)
  stmt_refs : Ast.stmt -> (Aref.t * consumer) list;
      (** the read references of a statement requiring analysis, with
          their consumers (paper Fig. 2 rules applied by the caller) *)
}

(** Classify producer → consumer movement (None = no communication). *)
val classify :
  producer:Ownership.spec ->
  consumer:Ownership.spec ->
  Ownership.dim_relation array ->
  Comm.kind option

(** Communication required to bring one reference to its consumer. *)
val comm_for_ref : Depend.t -> oracle -> Aref.t -> consumer -> Comm.t option

(** Analyze the whole program: one descriptor per distinct read of a
    statement (a reference read twice in one statement moves once).
    [red_group] gives the processor count a reduction's combine spans
    (1 suppresses the collective; the default 0 means "the whole
    machine").  [elide_unwritten] (default false)
    skips movement of never-assigned bases: initial data is seeded
    identically on every processor, so such copies can never diverge and
    broadcasting them re-delivers what every destination already holds
    (the fig1 [W0607] pattern at its source). *)
val analyze :
  Depend.t ->
  oracle ->
  ?reductions:Reduction.red list ->
  ?red_group:(Reduction.red -> int) ->
  ?elide_unwritten:bool ->
  unit ->
  Comm.t list
