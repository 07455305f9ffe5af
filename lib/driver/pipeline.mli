(** The pass-manager: folds a registered pass list over an immutable
    compilation context, recording per-pass wall time and statistics,
    and converting {!Hpf_lang.Diag.Fatal} raised by any pass into a
    [result]. *)

open Hpf_lang

(** One executed pass in the trace. *)
type entry = {
  pass : string;
  time_s : float;  (** wall time of the pass's [run] *)
  stats : (string * int) list;  (** counters the pass recorded, sorted *)
}

(** Record of one pipeline execution — a per-run value, merged across
    runs with {!Stats.merge} over {!total_stats}. *)
type trace = {
  entries : entry list;  (** executed passes, in execution order *)
  skipped : string list;  (** passes dropped by their enabled-predicate *)
  total_s : float;  (** wall time of the whole pipeline *)
}

(** Names of a pass list, in registration order. *)
val names : ('opts, 'ctx) Pass.t list -> string list

val find : ('opts, 'ctx) Pass.t list -> string -> ('opts, 'ctx) Pass.t option

(** Names of the executed passes of a trace, in order. *)
val executed : trace -> string list

(** Stats of one executed pass, if it ran. *)
val stats_of : trace -> string -> (string * int) list option

(** All counters of the trace merged into one set. *)
val total_stats : trace -> Stats.t

(** Fold the passes over [ctx] in order, skipping those whose
    enabled-predicate rejects [opts].  [after] is invoked with the pass
    name and the pass's result context after each executed pass (the
    [--dump-after] hook).  Returns the final context and the execution
    trace, or the diagnostics of the first failing pass. *)
val run :
  opts:'opts ->
  ?after:(string -> 'ctx -> unit) ->
  ('opts, 'ctx) Pass.t list ->
  'ctx ->
  ('ctx * trace, Diag.t list) result

(** Per-pass timing table (the [--time-passes] view). *)
val pp_timing : Format.formatter -> trace -> unit

(** Per-pass statistics counters (the [--stats] view); passes that
    recorded nothing are omitted. *)
val pp_stats : Format.formatter -> trace -> unit
