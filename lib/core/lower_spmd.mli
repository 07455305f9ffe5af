(** Lowering of compiled-program components to the explicit SPMD IR
    ({!Phpf_ir.Sir}).

    This is the [lower-spmd] pass body: ownership chains, guards,
    communication destinations, aggregation plans, reduction combine
    lines and the validation strategy are resolved once, into data, so
    the executor, the timing simulator and the verifier consume the same
    materialized program instead of re-deriving decisions at runtime.

    The function takes the compiled components rather than
    {!Compiler.compiled} to avoid a module cycle ({!Compiler} registers
    the pass that calls it). *)

open Hpf_lang

(** Lower to a {!Phpf_ir.Sir.program}.

    @param strict raise [E0801]–[E0806] diagnostics on unloweable
    constructs (cyclic alignment chains, dangling communications,
    out-of-range placement levels or grid dimensions) instead of
    dropping them silently.  The compiler pass lowers strictly; the
    fidelity audit ({!Phpf_verify.Sir_check}) re-lowers permissively,
    so a corrupted schedule still lowers to the data movement it
    describes.  Default [false].
    @raise Diag.Fatal in strict mode on unloweable constructs. *)
val lower :
  ?strict:bool ->
  prog:Ast.program ->
  decisions:Decisions.t ->
  comms:Hpf_comm.Comm.t list ->
  unit ->
  Phpf_ir.Sir.program
