(** Minimal JSON codec for the [phpfc serve] wire protocol and the
    [bench/main.exe --json] record.

    No external JSON dependency, and canonical output: object fields
    print in build order, every float through one fixed format
    ({!float_to_string}), so rendering the same value twice is
    bit-identical — the property the serve determinism digests rely
    on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** The one float rendering of the protocol: [%.1f] for integral
    values, [%.12g] otherwise. *)
val float_to_string : float -> string

val to_string : t -> string

(** Indented rendering for committed, line-diffed files: one object
    field or nested array element per line; arrays of scalars on one
    line.  Parses back to the same value wherever {!to_string} does. *)
val pretty : t -> string

exception Parse_error of string

(** Parse one JSON value (trailing content is an error).
    @raise Parse_error on malformed input. *)
val of_string : string -> t

val of_string_result : string -> (t, string) result

(** Object field lookup ([None] on missing field or non-object). *)
val member : string -> t -> t option

val to_str_opt : t -> string option
val to_int_opt : t -> int option
val to_bool_opt : t -> bool option

(** Accepts [Int] too (widened). *)
val to_float_opt : t -> float option
