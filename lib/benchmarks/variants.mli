(** The compiler configurations of the paper's evaluation (Tables 1-3). *)

open Phpf_core

(** Everything on — the paper's "Selected Alignment" compiler. *)
val selected : Decisions.options

(** Table 1, column 1: no scalar privatization, every scalar replicated. *)
val replication : Decisions.options

(** Table 1, column 2: privatize, but always align with a producer
    reference. *)
val producer_alignment : Decisions.options

(** Table 2, column 1: reduction scalars keep the default replicated
    mapping. *)
val no_reduction_alignment : Decisions.options

(** Table 3: array privatization disabled entirely. *)
val no_array_priv : Decisions.options

(** Table 3: full-array privatization only (no partial privatization). *)
val no_partial_priv : Decisions.options
