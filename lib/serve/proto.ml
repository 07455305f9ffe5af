(** The [phpfc serve] request/response protocol.

    One request per line, one JSON object per request:

    {v
    {"id": 7,                      // optional; echoed back
     "action": "compile",          // compile | lint | simulate
     "program": "program p\n...",  // kernel-language source text
     "grid": [4, 2],               // optional PROCESSORS override
     "options": {"privatize_arrays": false, ...}}  // optional knobs
    v}

    Malformed requests are [E0901] diagnostics; they never reach the
    compiler.  Responses are emitted by {!Serve} around the
    deterministic result payload built by {!Engine}. *)

open Phpf_core

type action = Compile | Lint | Simulate

let action_to_string = function
  | Compile -> "compile"
  | Lint -> "lint"
  | Simulate -> "simulate"

let action_of_string = function
  | "compile" -> Some Compile
  | "lint" -> Some Lint
  | "simulate" -> Some Simulate
  | _ -> None

type request = {
  id : int;
  action : action;
  program : string;  (** source text, not a path *)
  grid : int list option;
  options : Decisions.options;
}

(** A malformed request: the E0901 usage-error family.  [id] is the
    request id when the line parsed far enough to carry one. *)
type reject = { rid : int option; reason : string }

let code_malformed = "E0901"

(* Option decoding folds over the knob table.  Unknown keys are
   rejected (a typo silently compiling with default options would poison
   determinism comparisons between clients), and the pass selection is
   normalized, so equivalent selections share one cache key. *)
let known_option_keys =
  List.map (fun (k : Decisions.knob) -> k.Decisions.key) Decisions.knobs
  @ [ "opt_passes" ]

let options_of_json (j : Jsonx.t) : (Decisions.options, string) result =
  let ( let* ) = Result.bind in
  match j with
  | Jsonx.Obj fields -> (
      match
        List.find_opt
          (fun (k, _) -> not (List.mem k known_option_keys))
          fields
      with
      | Some (k, _) ->
          Error
            (Printf.sprintf "unknown option %S (known: %s)" k
               (String.concat ", " known_option_keys))
      | None ->
          let knob acc (k : Decisions.knob) =
            let* o = acc in
            match Jsonx.member k.Decisions.key j with
            | None -> Ok o
            | Some v -> (
                match Jsonx.to_bool_opt v with
                | Some b -> Ok (k.Decisions.set o b)
                | None ->
                    Error
                      (Printf.sprintf "option %S must be a bool"
                         k.Decisions.key))
          in
          let* o =
            List.fold_left knob (Ok Decisions.default_options) Decisions.knobs
          in
          let* opt_passes =
            match Jsonx.member "opt_passes" j with
            | None | Some Jsonx.Null -> Ok None
            | Some (Jsonx.List vs) -> (
                let strs = List.filter_map Jsonx.to_str_opt vs in
                if List.length strs <> List.length vs then
                  Error "opt_passes must be a list of strings"
                else
                  match Decisions.normalize_opt_passes strs with
                  | Ok ps -> Ok (Some ps)
                  | Error m -> Error ("option \"opt_passes\": " ^ m))
            | Some _ -> Error "opt_passes must be a list of strings"
          in
          Ok { o with Decisions.opt_passes })
  | _ -> Error "options must be an object"

let options_to_json (o : Decisions.options) : Jsonx.t =
  Jsonx.Obj
    (List.map
       (fun (k : Decisions.knob) ->
         (k.Decisions.key, Jsonx.Bool (k.Decisions.get o)))
       Decisions.knobs
    @ [
        ( "opt_passes",
          match o.Decisions.opt_passes with
          | None -> Jsonx.Null
          | Some ps -> Jsonx.List (List.map (fun p -> Jsonx.Str p) ps) );
      ])

(** Parse one request line.  [default_id] numbers requests that carry
    no explicit ["id"] (the batch driver passes the line number). *)
let request_of_line ~(default_id : int) (line : string) :
    (request, reject) result =
  match Jsonx.of_string_result line with
  | Error m -> Error { rid = None; reason = "invalid JSON: " ^ m }
  | Ok j -> (
      let rid =
        Option.bind (Jsonx.member "id" j) Jsonx.to_int_opt
      in
      let id = Option.value rid ~default:default_id in
      let reject reason = Error { rid = Some id; reason } in
      match j with
      | Jsonx.Obj _ -> (
          match Jsonx.member "action" j with
          | None -> reject "missing \"action\""
          | Some a -> (
              match Option.bind (Jsonx.to_str_opt a) action_of_string with
              | None ->
                  reject "\"action\" must be compile, lint or simulate"
              | Some action -> (
                  match Jsonx.member "program" j with
                  | None -> reject "missing \"program\""
                  | Some p -> (
                      match Jsonx.to_str_opt p with
                      | None -> reject "\"program\" must be a string"
                      | Some program -> (
                          let grid_r =
                            match Jsonx.member "grid" j with
                            | None | Some Jsonx.Null -> Ok None
                            | Some (Jsonx.List vs) ->
                                let ints =
                                  List.filter_map Jsonx.to_int_opt vs
                                in
                                if
                                  List.length ints = List.length vs
                                  && ints <> []
                                  && List.for_all (fun i -> i > 0) ints
                                then Ok (Some ints)
                                else
                                  Error
                                    "\"grid\" must be a non-empty list of \
                                     positive ints"
                            | Some _ ->
                                Error
                                  "\"grid\" must be a non-empty list of \
                                   positive ints"
                          in
                          match grid_r with
                          | Error m -> reject m
                          | Ok grid -> (
                              match
                                match Jsonx.member "options" j with
                                | None | Some Jsonx.Null ->
                                    Ok Decisions.default_options
                                | Some o -> options_of_json o
                              with
                              | Error m -> reject m
                              | Ok options ->
                                  Ok { id; action; program; grid; options })))
                  )))
      | _ -> reject "request must be a JSON object")

let request_to_json (r : request) : Jsonx.t =
  Jsonx.Obj
    [
      ("id", Jsonx.Int r.id);
      ("action", Jsonx.Str (action_to_string r.action));
      ("program", Jsonx.Str r.program);
      ( "grid",
        match r.grid with
        | None -> Jsonx.Null
        | Some g -> Jsonx.List (List.map (fun i -> Jsonx.Int i) g) );
      ("options", options_to_json r.options);
    ]

let request_to_line (r : request) : string =
  Jsonx.to_string (request_to_json r)

(* ------------------------------------------------------------------ *)
(* Canonical cache-key components                                      *)
(* ------------------------------------------------------------------ *)

(** The grid component of the cache key ("-" = no override). *)
let grid_signature (g : int list option) : string =
  match g with
  | None -> "-"
  | Some dims -> String.concat "x" (List.map string_of_int dims)

(** Diagnostics as JSON (the shared rendering of compile errors and
    lint findings). *)
let diag_to_json (d : Hpf_lang.Diag.t) : Jsonx.t =
  Jsonx.Obj
    [
      ( "severity",
        Jsonx.Str
          (match d.Hpf_lang.Diag.severity with
          | Hpf_lang.Diag.Error -> "error"
          | Hpf_lang.Diag.Warning -> "warning"
          | Hpf_lang.Diag.Note -> "note") );
      ("code", Jsonx.Str d.Hpf_lang.Diag.code);
      ( "loc",
        match d.Hpf_lang.Diag.loc with
        | None -> Jsonx.Null
        | Some l -> Jsonx.Str (Hpf_lang.Loc.to_string l) );
      ("message", Jsonx.Str d.Hpf_lang.Diag.message);
    ]
