(** SPMD race detector: write-write coverage of non-privatized array
    writes under the chosen computation partitioning.

    Findings: [E0607] (the owner of a written element does not execute
    the writing statement — its copy goes stale), [W0602] (executors
    strictly wider than the owners — a redundant replicated write).
    Divergent replication ([E0608]) is an unmet communication
    requirement and is reported by {!Comm_check}. *)

open Hpf_lang
open Phpf_core

val check : Compiler.compiled -> Diag.t list
