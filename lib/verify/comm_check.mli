(** Communication-completeness checker: every non-local read of the
    compiled program must be covered by a scheduled communication of the
    right form, placed at its vectorization level.

    Findings: [E0603] (required communication absent — the consumer
    reads a stale copy), [E0608] (the same at a statement every
    processor executes — the replicated copies diverge), [E0604]
    (scheduled with the wrong kind or at the wrong level — hoisted past
    the producing iteration or sunk below its vectorization level),
    [E0609] (descriptor references a nonexistent statement), [W0603]
    (communication nothing requires), [W0604] (communication left
    inside its innermost loop). *)

open Hpf_lang
open Phpf_core

(** Render the findings of [diff], the compiled schedule diffed against
    the re-derived requirement ({!Vutil.comm_diff}). *)
val check : Compiler.compiled -> Vutil.diff -> Diag.t list
