(** Structured diagnostics: severity, stable error code, optional
    {!Loc.t}, message.  Every compiler phase reports failures this way;
    {!Fatal} is caught at pass boundaries so the library API and the CLI
    surface [(_, t list) result] values instead of phase-specific
    exceptions.

    Error-code ranges:

    - [E0101] lexical error
    - [E0201] syntax error
    - [E0301] undeclared identifier
    - [E0302] rank/subscript mismatch
    - [E0303] assignment discipline (loop index, parameter, index reuse)
    - [E0304] inconsistent directive
    - [E0305] duplicate declaration or parameter
    - [E0306] misplaced [EXIT]/[CYCLE]
    - [E0307] operand type mismatch: a logical where a number is needed
      (arithmetic, comparison, intrinsic, subscript, loop bound) or a
      real where an integer or logical is needed ([IF] condition,
      [.and.]/[.or.]/[.not.] operand)
    - [E0401] mapping/layout error
    - [E0402] invalid processor grid extents
    - [E0501] pipeline/driver error (e.g. unknown pass name)
    - [E0601]-[E0613] static-verifier soundness errors ([phpfc lint]):
      privatized value escaping its validity scope ([E0601]) or live
      across a loop back edge ([E0602]), missing communication for a
      non-local read ([E0603]), communication hoisted past a dependence
      or sunk below its vectorization level ([E0604]), replication
      dimensions inconsistent with the grid ([E0605]), structurally
      invalid mapping record ([E0606]), owner of a written element not
      executing the statement ([E0607]), divergent replicated execution
      ([E0608]), dangling communication descriptor ([E0609]), a
      decisions-mandated transfer missing from the lowered IR ([E0610]),
      lowered guards/allocations/reductions diverging from the mapping
      decisions ([E0611]), a path-sensitive stale or uninitialized read
      in the lowered IR ([E0612]), an unsound recovery-plan entry
      ([E0613])
    - [W0601]-[W0699] static-verifier lint warnings: inconsistent
      mappings across a phi ([W0601]), redundant replicated write
      ([W0602]), redundant communication ([W0603]), unvectorized
      inner-loop communication ([W0604]), a lowered transfer with no
      decisions-level justification ([W0605]), a dead transfer whose
      payload is never read ([W0606]), a transfer of data already valid
      at every destination ([W0607]), a statically empty or subsumed
      guard predicate ([W0608])
    - [E0701] runtime error during interpretation (bad subscript, fuel
      exhaustion, uninitialised read), surfaced at the CLI boundary
    - [E0702] invalid fault-injection spec ([phpfc simulate --faults])
    - [E0703] unrecoverable injected fault: the message runtime's retry
      budget was exhausted before delivery
    - [E0704] statement-instance budget exhausted ([phpfc simulate
      --fuel]); the diagnostic carries the statement that ran out
    - [E0801]-[E0806] strict SPMD lowering errors ([lower-spmd] pass):
      alignment chain deeper than the privatization bound or cyclic
      ([E0801]), communication anchored at a statement that does not
      exist ([E0802]), placement level outside the enclosing loop nest
      ([E0803]), subscripted reference to an undeclared array ([E0804]),
      reduction whose accumulating statement is missing ([E0805]),
      replication dimension outside the processor grid's rank
      ([E0806]) *)

type severity = Error | Warning | Note

type t = {
  severity : severity;
  code : string;  (** stable machine-readable code, e.g. ["E0301"] *)
  loc : Loc.t option;  (** position, when the phase tracks one *)
  message : string;
}

(** Raised by phases on unrecoverable errors; caught at pass
    boundaries.  Never escapes {!Phpf_core.Compiler.compile} or the
    [phpfc] CLI. *)
exception Fatal of t list

val make : ?severity:severity -> ?loc:Loc.t -> code:string -> string -> t
val error : ?loc:Loc.t -> code:string -> string -> t
val warning : ?loc:Loc.t -> code:string -> string -> t
val note : ?loc:Loc.t -> code:string -> string -> t

val errorf :
  ?loc:Loc.t -> code:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val warningf :
  ?loc:Loc.t -> code:string -> ('a, Format.formatter, unit, t) format4 -> 'a

(** Format a message and raise {!Fatal} with a single error. *)
val failf :
  ?loc:Loc.t -> code:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a

val is_error : t -> bool
val severity_to_string : severity -> string
val pp_severity : Format.formatter -> severity -> unit

(** One-line rendering: [FILE:LINE:COL: error[CODE]: message] (location
    omitted when absent) — the single renderer shared by the CLI and the
    tests. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** Render each diagnostic of the list on its own line. *)
val pp_list : Format.formatter -> t list -> unit
