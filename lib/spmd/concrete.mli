(** Concrete processor sets of the lowered program's owner lines,
    compiled against a run's memory layout — the one evaluator of
    {!Phpf_ir.Sir} guards, shared by {!Spmd_interp} and {!Trace_sim}.
    Subscripts embedded in [C_affine] coordinates are compiled once per
    run and read from memory at each instance, so non-affine ones
    resolve exactly.  Every result is a closed-form
    {!Hpf_mapping.Pid_set.t} (no cartesian expansion) whose iteration
    order is ascending linear ids.

    A compiled guard evaluates into its own buffer: the set it returns
    is valid until that guard's next evaluation, and the same guard
    must not be shared across domains.  Compile guards per run; nothing
    here is cached. *)

open Hpf_mapping
module Sir = Phpf_ir.Sir

(** The memory layout of a run of the lowered program: its source's
    names plus every name its ops read or write (crossed loop indices
    included). *)
val layout : Sir.program -> Memory.layout

(** The lowest pid on an owner line (the transfer source). *)
val place_first : Memory.layout -> Grid.t -> Sir.place -> int Eval.code

(** Processors a computes or destination predicate selects; an empty
    evaluated [P_union] falls back to every processor. *)
val pred : Memory.layout -> Grid.t -> Sir.pred -> Pid_set.t Eval.code

(** [eplace_set grid ep] compiles an element-place recipe; apply it
    once per run and then to each index vector [idx] for the owners of
    the element at [idx].  Like every guard here it returns its own
    buffer, valid until its next application. *)
val eplace_set : Grid.t -> Sir.eplace -> int array -> Pid_set.t
