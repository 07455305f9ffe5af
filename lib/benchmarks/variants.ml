(** The compiler configurations of the paper's evaluation. *)

open Phpf_core

(** Everything on — the paper's "Selected Alignment" compiler.  The Sir
    optimizer suite is pinned {e off}: Tables 1-3 model phpf's verbatim
    communication schedule, and the optimizer (a post-paper extension)
    would skew the reproduced counts. *)
let selected : Decisions.options =
  { Decisions.default_options with Decisions.optimize = false }

(** Table 1, column 1: no scalar privatization, every scalar replicated. *)
let replication : Decisions.options =
  { selected with Decisions.privatize_scalars = false }

(** Table 1, column 2: privatize, but always align with a producer
    reference. *)
let producer_alignment : Decisions.options =
  { selected with Decisions.force_producer_alignment = true }

(** Table 2, column 1: reduction scalars keep the default replicated
    mapping. *)
let no_reduction_alignment : Decisions.options =
  { selected with Decisions.reduction_alignment = false }

(** Table 3: array privatization disabled entirely. *)
let no_array_priv : Decisions.options =
  { selected with Decisions.privatize_arrays = false }

(** Table 3: full-array privatization only (no partial privatization). *)
let no_partial_priv : Decisions.options =
  { selected with Decisions.partial_privatization = false }
