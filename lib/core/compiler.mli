(** The phpf-style compilation pipeline — the main entry point of the
    library.

    {!compile} runs the registered pass list (semantic checking,
    induction-variable rewriting, SSA construction, the privatization
    passes of the paper — control flow, reductions, arrays incl. partial
    privatization, the Fig. 3 scalar mapping algorithm — and
    communication analysis with message vectorization) through the
    pass-manager of {!Phpf_driver.Pipeline}.  Failures in any phase
    surface as structured diagnostics ({!Hpf_lang.Diag.t}), never as
    phase-specific exceptions. *)

open Hpf_lang
open Hpf_analysis
open Hpf_comm

(** Immutable accumulator threaded through the passes (exposed for the
    [--dump-after] hook and custom drivers): each pass maps the context
    its predecessor returned to a new record, so a compile in flight
    owns every value it touches and many compiles can run concurrently
    on separate domains.  Declared before {!compiled} so that
    unannotated [c.Compiler.prog]-style accesses in client code resolve
    to the {!compiled} record's fields. *)
type context = {
  prog : Ast.program;
  ivs : Induction.iv list;
  ssa : Ssa.t option;
      (** set by induction when it left [prog] unchanged: its SSA, which
          the decisions pass reuses *)
  decisions : Decisions.t option;  (** set by the decisions pass *)
  comms : Comm.t list;
  sir : Phpf_ir.Sir.program option;  (** set by lower-spmd *)
  grid_override : int list option;
  options : Decisions.options;
}

type compiled = {
  prog : Ast.program;  (** after semantic checks and IV rewriting *)
  decisions : Decisions.t;  (** every privatization/mapping decision *)
  comms : Comm.t list;  (** the communication schedule *)
  ivs : Induction.iv list;  (** recognized induction variables *)
  sir : Phpf_ir.Sir.program option;
      (** the lowered SPMD program ([lower-spmd]); consumed by the
          executor, the timing simulator and the verifier *)
}

(** The registered pass list, in order: [sema], [induction],
    [decisions], [ctrl-priv], [reduction-map], [array-priv],
    [scalar-map], [comm-analysis], [lower-spmd].  Optimization knobs in
    {!Decisions.options} gate the corresponding passes through their
    enabled-predicates. *)
val passes : (Decisions.options, context) Phpf_driver.Pass.t list

(** Names of the registered passes, in order. *)
val pass_names : string list

(** Compile a program.

    @param grid_override replaces the extents of the declared [PROCESSORS]
    arrangement (to sweep machine sizes without editing the program).
    @param options disables individual passes, reproducing the paper's
    less-optimized compiler versions (see {!Decisions.options}).
    @return the compiled program, or the diagnostics of the first
    failing pass (semantic errors, inconsistent directives, ...). *)
val compile :
  ?grid_override:int list ->
  ?options:Decisions.options ->
  Ast.program ->
  (compiled, Diag.t list) result

(** Like {!compile}, also returning the pipeline execution trace
    (per-pass wall time and statistics).  [after] is invoked with each
    executed pass's name and the context — the [--dump-after] hook. *)
val compile_traced :
  ?grid_override:int list ->
  ?options:Decisions.options ->
  ?after:(string -> context -> unit) ->
  Ast.program ->
  (compiled * Phpf_driver.Pipeline.trace, Diag.t list) result

(** Like {!compile} for callers that have already validated their input
    (generated benchmark programs, tests).
    @raise Diag.Fatal with the diagnostics on failure. *)
val compile_exn :
  ?grid_override:int list ->
  ?options:Decisions.options ->
  Ast.program ->
  compiled

(** The lowered program recorded by [lower-spmd]: the one program the
    SPMD executor runs and the timing simulator prices.
    @raise Invalid_argument on a record that carries none. *)
val sir_exn : compiled -> Phpf_ir.Sir.program

(** Estimated communication time of the schedule under a machine model
    (static view; {!Hpf_spmd.Trace_sim} gives the measured view). *)
val estimated_comm_cost : ?model:Cost_model.t -> compiled -> float

(** Communications that could not be vectorized out of their innermost
    loop — the paper's expensive case. *)
val inner_loop_comms : compiled -> Comm.t list
