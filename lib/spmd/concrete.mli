(** Concrete processor sets of the lowered program's owner lines,
    evaluated against a runtime memory — the one evaluator of
    {!Phpf_ir.Sir} guards, shared by {!Spmd_interp} and {!Trace_sim}.
    Subscripts embedded in [C_affine] coordinates are read from the
    memory, so non-affine ones resolve exactly.  Every result is a
    closed-form {!Hpf_mapping.Pid_set.t} (no cartesian expansion) whose
    iteration order is ascending linear ids. *)

open Hpf_mapping
module Sir = Phpf_ir.Sir

(** Processors on an owner line. *)
val place_set : Grid.t -> Memory.t -> Sir.place -> Pid_set.t

(** Processors a computes or destination predicate selects; an empty
    evaluated [P_union] falls back to every processor. *)
val pred_set : Grid.t -> Memory.t -> Sir.pred -> Pid_set.t

(** Owners of the array element at index vector [idx] under an
    element-place recipe. *)
val eplace_set : Grid.t -> Sir.eplace -> int array -> Pid_set.t
