(** Minimal JSON: the line-delimited request/response codec of
    [phpfc serve], and the writer of [bench/main.exe --json].

    Hand-rolled on purpose — the build depends on no JSON package, and
    the server needs {e canonical} output: object fields print in the
    order they were built, numbers print through one fixed format, so a
    response rendered twice is bit-identical and safe to digest.  The
    parser accepts standard JSON (objects, arrays, strings with the
    usual escapes, numbers, booleans, null); it exists for requests and
    for the tests that read responses and bench records back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape (b : Buffer.t) (s : string) =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(** One fixed float rendering ([%.12g], with a trailing [.0] forced on
    integral values so the reader can tell them from ints).  Determinism
    of responses hangs on every float passing through here. *)
let float_to_string (f : float) : string =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec write (b : Buffer.t) (v : t) : unit =
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_to_string f)
  | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        vs;
      Buffer.add_char b ']'
  | Obj fs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\":";
          write b v)
        fs;
      Buffer.add_char b '}'

let to_string (v : t) : string =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(** Indented rendering for committed, line-diffed files: one object
    field or nested array element per line, two spaces per level;
    arrays of scalars stay on one line.  Scalars print exactly as in
    {!to_string}. *)
let pretty (v : t) : string =
  let b = Buffer.create 4096 in
  let scalar = function List _ | Obj _ -> false | _ -> true in
  let rec go indent v =
    match v with
    | List vs when List.for_all scalar vs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string b ", ";
            write b v)
          vs;
        Buffer.add_char b ']'
    | List vs -> block indent '[' ']' (List.map (fun v -> (None, v)) vs)
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fs -> block indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) fs)
    | v -> write b v
  and block indent opening closing items =
    let inner = indent ^ "  " in
    Buffer.add_char b opening;
    List.iteri
      (fun i (k, v) ->
        Buffer.add_string b (if i > 0 then ",\n" else "\n");
        Buffer.add_string b inner;
        Option.iter
          (fun k ->
            Buffer.add_char b '"';
            escape b k;
            Buffer.add_string b "\": ")
          k;
        go inner v)
      items;
    Buffer.add_char b '\n';
    Buffer.add_string b indent;
    Buffer.add_char b closing
  in
  go "" v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }

let fail (p : parser_state) fmt =
  Printf.ksprintf
    (fun m -> raise (Parse_error (Printf.sprintf "at offset %d: %s" p.pos m)))
    fmt

let peek (p : parser_state) : char option =
  if p.pos < String.length p.src then Some p.src.[p.pos] else None

let advance (p : parser_state) = p.pos <- p.pos + 1

let rec skip_ws (p : parser_state) =
  match peek p with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance p;
      skip_ws p
  | _ -> ()

let expect (p : parser_state) (c : char) =
  match peek p with
  | Some c' when c' = c -> advance p
  | Some c' -> fail p "expected %c, found %c" c c'
  | None -> fail p "expected %c, found end of input" c

let parse_literal (p : parser_state) (lit : string) (v : t) : t =
  if
    p.pos + String.length lit <= String.length p.src
    && String.sub p.src p.pos (String.length lit) = lit
  then (
    p.pos <- p.pos + String.length lit;
    v)
  else fail p "invalid literal"

(* The escape after a backslash, appended to [b] decoded. *)
let add_escape (p : parser_state) (b : Buffer.t) : unit =
  match peek p with
  | Some '"' -> advance p; Buffer.add_char b '"'
  | Some '\\' -> advance p; Buffer.add_char b '\\'
  | Some '/' -> advance p; Buffer.add_char b '/'
  | Some 'n' -> advance p; Buffer.add_char b '\n'
  | Some 'r' -> advance p; Buffer.add_char b '\r'
  | Some 't' -> advance p; Buffer.add_char b '\t'
  | Some 'b' -> advance p; Buffer.add_char b '\b'
  | Some 'f' -> advance p; Buffer.add_char b '\012'
  | Some 'u' ->
      advance p;
      if p.pos + 4 > String.length p.src then fail p "truncated \\u escape";
      let hex = String.sub p.src p.pos 4 in
      let code =
        try int_of_string ("0x" ^ hex)
        with _ -> fail p "invalid \\u escape %s" hex
      in
      p.pos <- p.pos + 4;
      (* UTF-8 encode the BMP code point; surrogate pairs are not
         needed for the protocol (program text is ASCII) *)
      if code < 0x80 then Buffer.add_char b (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
  | _ -> fail p "invalid escape"

(* A request line is mostly program text, so each run of characters
   that stand for themselves, up to the next quote or backslash, is
   found in one scan and copied in one piece. *)
let parse_string_body (p : parser_state) : string =
  expect p '"';
  let b = Buffer.create 16 and n = String.length p.src in
  let rec go () =
    let start = p.pos in
    while p.pos < n && p.src.[p.pos] <> '"' && p.src.[p.pos] <> '\\' do
      advance p
    done;
    Buffer.add_substring b p.src start (p.pos - start);
    if p.pos >= n then fail p "unterminated string";
    let quote = p.src.[p.pos] = '"' in
    advance p;
    if not quote then begin
      add_escape p b;
      go ()
    end
  in
  go ();
  Buffer.contents b

let parse_number (p : parser_state) : t =
  let start = p.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek p with Some c -> is_num_char c | None -> false) do
    advance p
  done;
  let s = String.sub p.src start (p.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail p "invalid number %s" s)

let rec parse_value (p : parser_state) : t =
  skip_ws p;
  match peek p with
  | None -> fail p "unexpected end of input"
  | Some 'n' -> parse_literal p "null" Null
  | Some 't' -> parse_literal p "true" (Bool true)
  | Some 'f' -> parse_literal p "false" (Bool false)
  | Some '"' -> Str (parse_string_body p)
  | Some '[' ->
      advance p;
      skip_ws p;
      if peek p = Some ']' then (advance p; List [])
      else
        let rec items acc =
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' -> advance p; items (v :: acc)
          | Some ']' -> advance p; List (List.rev (v :: acc))
          | _ -> fail p "expected , or ] in array"
        in
        items []
  | Some '{' ->
      advance p;
      skip_ws p;
      if peek p = Some '}' then (advance p; Obj [])
      else
        let field () =
          skip_ws p;
          let k = parse_string_body p in
          skip_ws p;
          expect p ':';
          let v = parse_value p in
          (k, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws p;
          match peek p with
          | Some ',' -> advance p; fields (f :: acc)
          | Some '}' -> advance p; Obj (List.rev (f :: acc))
          | _ -> fail p "expected , or } in object"
        in
        fields []
  | Some ('-' | '0' .. '9') -> parse_number p
  | Some c -> fail p "unexpected character %c" c

(** Parse one JSON value; trailing content (after whitespace) is an
    error.  Raises {!Parse_error}. *)
let of_string (s : string) : t =
  let p = { src = s; pos = 0 } in
  let v = parse_value p in
  skip_ws p;
  (match peek p with
  | Some c -> fail p "trailing content starting with %c" c
  | None -> ());
  v

let of_string_result (s : string) : (t, string) result =
  try Ok (of_string s) with Parse_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member (k : string) (v : t) : t option =
  match v with Obj fs -> List.assoc_opt k fs | _ -> None

let to_str_opt = function Str s -> Some s | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
