(** Semantic checks and normalization.

    {!check} validates declarations, reference ranks, directive
    consistency, loop-index discipline and [EXIT]/[CYCLE] targets, and
    returns the program with statement ids renumbered deterministically
    (preorder 1, 2, 3, ...), which every analysis relies on.

    Violations are reported as {!Diag.t} values with codes
    [E0301]-[E0307] (see {!Diag}), located at the offending statement
    when it carries a source position. *)

(** Validate and renumber, accumulating diagnostics: each top-level unit
    (declaration set, directive, top-level statement) contributes at most
    one diagnostic, so several independent mistakes surface in one run. *)
val check_result : Ast.program -> (Ast.program, Diag.t list) result

(** Like {!check_result} but raising.
    @raise Diag.Fatal with the accumulated diagnostics. *)
val check : Ast.program -> Ast.program

(** Like {!check} with the program name prefixed to error messages. *)
val check_named : Ast.program -> Ast.program
