(** Mapping decisions for privatized variables, and their translation
    into ownership specs for communication analysis and SPMD execution.

    Holds the state the paper's algorithms populate: per scalar
    definition one of the four mappings (replication / alignment /
    no-alignment privatization / the reduction mapping), per (array,
    loop) a full or partial privatization, per [If] a privatized-control
    bit — plus the evaluation rule "the mapping at a use is the one
    recorded with its first reaching definition". *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping

type scalar_mapping =
  | Replicated  (** default: every processor computes and stores it *)
  | Priv_no_align
      (** computed redundantly by the iteration's executors; viewed as
          replicated by communication analysis (paper §2.1) *)
  | Priv_aligned of { target : Aref.t; level : int }
      (** owned by the owner of [target]; valid within the loop at
          nesting [level] *)
  | Priv_reduction of {
      target : Aref.t;
      repl_grid_dims : int list;
      level : int;
    }
      (** reduction accumulator: replicated along the grid dimensions the
          reduction spans, aligned with [target] elsewhere (paper §2.3) *)

val pp_scalar_mapping : Format.formatter -> scalar_mapping -> unit

type array_mapping =
  | Arr_priv of { target : Aref.t option }
      (** fully privatized; [None] = without alignment *)
  | Arr_partial_priv of { target : Aref.t; priv_grid_dims : int list }
      (** privatized along [priv_grid_dims], partitioned by the array's
          own directives elsewhere (paper §3.2) *)

val pp_array_mapping : Format.formatter -> array_mapping -> unit

(** Knobs matching the compiler versions of the paper's evaluation. *)
type options = {
  privatize_scalars : bool;  (** off = Table 1 "Replication" *)
  force_producer_alignment : bool;  (** Table 1 "Producer Alignment" *)
  reduction_alignment : bool;  (** off = Table 2 "Default" *)
  privatize_arrays : bool;  (** off = Table 3 "No Array Priv." *)
  partial_privatization : bool;  (** off = Table 3 "No Partial Priv." *)
  privatize_control : bool;  (** paper §4 *)
  auto_array_priv : bool;
      (** the future-work extension ({!Hpf_analysis.Auto_priv}); off by
          default to stay faithful to phpf *)
  optimize : bool;
      (** run the {!Phpf_ir.Sir_opt} suite after [lower-spmd] and elide
          provably no-op transfers in the emitter; on by default
          ([--no-opt] = the paper-faithful phpf schedule) *)
}

(** Everything on — the paper's "Selected Alignment" compiler. *)
val default_options : options

(** The decision tables: immutable maps behind one mutable cell.  The
    mapping passes grow them through the setters below; the compiler
    calls {!freeze} at the end of the pipeline, after which every setter
    raises — a frozen [t] is safe to share across domains. *)
type tables

type t = {
  prog : Ast.program;
  nest : Nest.t;
  deps : Depend.t;
      (** the dependence forms over [nest], derived once for every
          placement query of the compile *)
  ssa : Ssa.t;
  priv : Privatizable.t;
  env : Layout.env;
  reductions : Reduction.red list;
  options : options;
  mutable tables : tables;
  mutable frozen : bool;
}

(** Build the analysis state for a (checked, IV-rewritten) program:
    SSA, privatizability, layouts, reduction records.  [ssa] is reused
    when it was built on this very program (physically), as induction's
    is when it rewrote nothing; otherwise the SSA is built here. *)
val create :
  ?grid_override:int list -> ?options:options -> ?ssa:Ssa.t -> Ast.program -> t

(** {2 Freeze discipline} *)

val frozen : t -> bool

(** Seal the decision tables: any later setter call raises
    [Invalid_argument].  Done by {!Compiler.compile_traced} once the
    pipeline finishes. *)
val freeze : t -> unit

(** {2 Decision lookup and recording} *)

val scalar_mapping_of_def : t -> Ssa.def_id -> scalar_mapping

(** Whether a mapping was explicitly recorded for this definition
    ({!scalar_mapping_of_def} defaults to [Replicated]). *)
val mem_scalar_mapping : t -> Ssa.def_id -> bool

val set_scalar_mapping : t -> Ssa.def_id -> scalar_mapping -> unit

(** Corrupt a scalar decision {e bypassing} the freeze check — the
    verifier tests' corruption hook; never call it from the compiler. *)
val unsafe_set_scalar_mapping : t -> Ssa.def_id -> scalar_mapping -> unit

(** CFG node at which statement [sid] touches [var]. *)
val stmt_node_for_var : t -> Ast.stmt_id -> string -> int option

(** Mapping of [var] as {e used} at [sid]: its first reaching
    definition's mapping. *)
val scalar_mapping_of_use : t -> sid:Ast.stmt_id -> var:string -> scalar_mapping

(** The SSA definition created by statement [sid] for scalar [var]. *)
val def_of_stmt : t -> sid:Ast.stmt_id -> var:string -> Ssa.def_id option

(** Innermost array privatization applying at a statement. *)
val array_mapping_at :
  t -> sid:Ast.stmt_id -> base:string -> (Nest.loop_info * array_mapping) option

val mem_array_mapping : t -> string * Ast.stmt_id -> bool
val set_array_mapping : t -> string * Ast.stmt_id -> array_mapping -> unit

(** Corrupt an array decision {e bypassing} the freeze check.  Exists
    only so the static verifier's tests can plant inconsistent decisions
    in a finished compile; never call it from the compiler. *)
val unsafe_set_array_mapping : t -> string * Ast.stmt_id -> array_mapping -> unit

val ctrl_privatized : t -> Ast.stmt_id -> bool
val set_ctrl : t -> Ast.stmt_id -> bool -> unit

(** Defer a definition to the paper's Fig. 3 no-alignment examination
    list; {!no_align_deferred} replays them in push order. *)
val push_no_align : t -> Ssa.def_id -> unit

val no_align_deferred : t -> Ssa.def_id list

(** {2 Owner specs under the current decisions} *)

val all_procs : t -> Ownership.spec

(** Owner spec from the HPF directives alone (no privatization). *)
val directive_spec : t -> Aref.t -> Ownership.spec

(** Widen the given grid dimensions of a spec to [O_all]. *)
val replicate_dims : Ownership.spec -> int list -> Ownership.spec

(** Owner spec of a reference under the current decisions.  [as_def]
    selects the definition-side mapping for a scalar lhs. *)
val owner_spec : t -> ?as_def:bool -> Aref.t -> Ownership.spec

val spec_of_scalar_mapping : t -> scalar_mapping -> Ownership.spec

(** Pointwise union (equal dimensions kept, anything else widened). *)
val spec_union : t -> Ownership.spec list -> Ownership.spec

(** {2 Computation-partitioning guards} *)

type guard =
  | G_all  (** executed by every processor *)
  | G_ref of Aref.t  (** owner-computes: the owner of this reference *)
  | G_ref_repl of Aref.t * int list
      (** owner of the reference widened along the given grid dims *)
  | G_union
      (** union of the processors executing the other statements of the
          surrounding iteration *)

val pp_guard : Format.formatter -> guard -> unit

(** Guard of a statement under the current decisions. *)
val guard_of_stmt : t -> Ast.stmt -> guard

(** The guard as an owner spec ([G_union] resolved against the sibling
    statements of the innermost enclosing loop). *)
val guard_spec : t -> Ast.stmt -> Ownership.spec

(** All statements of a body, in preorder. *)
val all_stmts_in : Ast.stmt list -> Ast.stmt list

(** {2 Deterministic read-only views}

    Sorted snapshots of the decision tables, for consumers (reporting,
    the static verifier of {!Phpf_verify}) that must not depend on the
    table internals. *)

val scalar_mappings : t -> (Ssa.def_id * scalar_mapping) list
val array_mappings : t -> ((string * Ast.stmt_id) * array_mapping) list
val ctrl_entries : t -> (Ast.stmt_id * bool) list
val scalar_count : t -> int
val array_count : t -> int
val ctrl_count : t -> int

(** Per-array privatization summary across all loops: [`Full] if any
    loop fully privatizes the array, otherwise the union of the partial
    privatization grid dims, [`None] when no decision mentions it. *)
val array_priv_summary : t -> string -> [ `Full | `Partial of int list | `None ]

(** {2 One options path}

    The CLI flags, the serve request keys and the cache signature are
    all derived from {!knobs}; an option is declared there and nowhere
    else. *)

type knob = {
  key : string;  (** serve request key and cache-signature tag *)
  flag : string;  (** CLI flag (without dashes) that flips the default *)
  doc : string;  (** the flag's [--help] line *)
  get : options -> bool;
  set : options -> bool -> options;
}

(** Every field of {!options} (all boolean), in record order. *)
val knobs : knob list

(** Canonical one-line rendering of an option record — the options
    component of content-addressed cache keys ({!Phpf_driver.Memo.key}).
    Equal signatures iff structurally equal records, so requests
    differing in any knob never share a cache entry. *)
val options_signature : options -> string
