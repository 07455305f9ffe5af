(** The [phpfc serve] request protocol: one JSON object per line —
    [{"id", "action", "program", "grid", "options"}].  Malformed lines
    become {!reject} values rendered as [E0901] diagnostics; they never
    reach the compiler. *)

open Phpf_core

type action = Compile | Lint | Simulate

val action_to_string : action -> string
val action_of_string : string -> action option

type request = {
  id : int;
  action : action;
  program : string;  (** source text, not a path *)
  grid : int list option;  (** PROCESSORS override *)
  options : Decisions.options;
}

type reject = {
  rid : int option;  (** request id when the line parsed far enough *)
  reason : string;
}

(** ["E0901"] — the malformed-serve-request diagnostic code. *)
val code_malformed : string

(** Option object → knob record, folding over {!Decisions.knobs};
    unknown keys and ill-typed values are errors (a typo must not
    silently compile with defaults).  [opt_passes] goes through
    {!Decisions.normalize_opt_passes}, so an unknown pass is an error and
    equivalent selections decode equal. *)
val options_of_json : Jsonx.t -> (Decisions.options, string) result

val options_to_json : Decisions.options -> Jsonx.t

(** Parse one request line; [default_id] numbers requests without an
    explicit ["id"] (the batch driver passes the line number). *)
val request_of_line :
  default_id:int -> string -> (request, reject) result

val request_to_json : request -> Jsonx.t
val request_to_line : request -> string

(** Grid component of the content-addressed cache key ("-" = none). *)
val grid_signature : int list option -> string

(** Shared JSON rendering of a structured diagnostic. *)
val diag_to_json : Hpf_lang.Diag.t -> Jsonx.t
