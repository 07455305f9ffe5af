(** Deterministic, seed-derived fault schedules for the SPMD message
    runtime.

    A schedule decides, at every message-send event and every statement
    boundary, whether to injure the run: drop / duplicate / reorder /
    corrupt / delay a packet, or stall / crash a processor.  Decisions
    come from the same mixer discipline as {!Init} — no [Random] — so a
    (spec, seed) pair names one exact fault campaign, reproducible
    across runs and platforms.  {!Recover} is the counterpart that
    detects and repairs the damage. *)

type kind =
  | Drop  (** packet vanishes in flight *)
  | Duplicate  (** packet is delivered twice *)
  | Reorder  (** packet is held back and released after a later one *)
  | Corrupt  (** payload bits flip; the checksum no longer matches *)
  | Delay  (** packet arrives late (possibly past the receiver timeout) *)
  | Stall  (** a processor stops responding for a while *)
  | Crash  (** a processor dies and loses its shadow memory *)

let all_kinds = [ Drop; Duplicate; Reorder; Corrupt; Delay; Stall; Crash ]

(** Message-level kinds, in the (fixed) order decisions are rolled. *)
let message_kinds = [ Drop; Duplicate; Reorder; Corrupt; Delay ]

(** Processor-level kinds, rolled once per statement boundary. *)
let processor_kinds = [ Stall; Crash ]

let kind_to_string = function
  | Drop -> "drop"
  | Duplicate -> "dup"
  | Reorder -> "reorder"
  | Corrupt -> "corrupt"
  | Delay -> "delay"
  | Stall -> "stall"
  | Crash -> "crash"

let pp_kind ppf k = Fmt.string ppf (kind_to_string k)

let kind_of_string = function
  | "drop" -> Some Drop
  | "dup" | "duplicate" -> Some Duplicate
  | "reorder" -> Some Reorder
  | "corrupt" -> Some Corrupt
  | "delay" -> Some Delay
  | "stall" -> Some Stall
  | "crash" -> Some Crash
  | _ -> None

let kind_tag = function
  | Drop -> 1
  | Duplicate -> 2
  | Reorder -> 3
  | Corrupt -> 4
  | Delay -> 5
  | Stall -> 6
  | Crash -> 7

(** A fault specification: per-kind injection probabilities in [0, 1]. *)
type spec = (kind * float) list

(** A one-shot injection: fire [kind] at exactly the given processor
    heartbeat window (0-based), regardless of rates.  The victim
    processor is picked deterministically like any other processor
    fault. *)
type oneshot = kind * int

let default_rate = 0.05

(** Parse a fault-spec string.

    Grammar: [item ("," item)*] where
    [item ::= KIND (":" RATE)? | PKIND "@" EVENT], [KIND] one of
    [drop dup duplicate reorder corrupt delay stall crash all], [RATE] a
    float in [0, 1] (default [0.05]), and [PKIND@EVENT] a one-shot
    processor fault ([stall] or [crash]) at heartbeat window [EVENT].

    [all] sets every kind at once.  Explicitly naming the same kind
    twice is rejected (so is a second [all]): a silent last-wins merge
    hid typos like [drop:0.1,drop:0.2].  The one documented exception
    stays legal: [all] followed by explicit single-kind overrides
    ([all:0.1,crash:0]). *)
let parse_spec (s : string) : (spec * oneshot list, string) result =
  let exception Bad of string in
  try
    let items =
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun x -> x <> "")
    in
    if items = [] then raise (Bad "empty fault spec");
    let kind_of name =
      match kind_of_string name with
      | Some k -> k
      | None ->
          raise
            (Bad
               (Fmt.str
                  "unknown fault kind %S (expected drop, dup, reorder, \
                   corrupt, delay, stall, crash or all)"
                  name))
    in
    (* [`All] and [`One] track how a kind's rate was set, so duplicates
       are detected per explicit mention, not per merged kind *)
    let parse_item item =
      match String.index_opt item '@' with
      | Some i ->
          let name = String.sub item 0 i in
          let e = String.sub item (i + 1) (String.length item - i - 1) in
          let event =
            match int_of_string_opt e with
            | Some n when n >= 0 -> n
            | Some _ | None ->
                raise (Bad (Fmt.str "bad one-shot event %S for %s" e name))
          in
          let k = kind_of name in
          if not (List.mem k processor_kinds) then
            raise
              (Bad
                 (Fmt.str
                    "one-shot %s@%d: only processor faults (stall, crash) \
                     can be pinned to an event"
                    name event));
          `Shot (k, event)
      | None -> (
          let name, rate =
            match String.index_opt item ':' with
            | None -> (item, default_rate)
            | Some i ->
                let name = String.sub item 0 i in
                let r =
                  String.sub item (i + 1) (String.length item - i - 1)
                in
                let rate =
                  match float_of_string_opt r with
                  | Some f when f >= 0.0 && f <= 1.0 -> f
                  | Some _ ->
                      raise
                        (Bad
                           (Fmt.str "rate %s out of range [0, 1] for %s" r
                              name))
                  | None -> raise (Bad (Fmt.str "bad rate %S for %s" r name))
                in
                (name, rate)
          in
          match name with
          | "all" -> `All rate
          | _ -> `One (kind_of name, rate))
    in
    let spec, _, _, shots =
      List.fold_left
        (fun (spec, seen_all, seen, shots) item ->
          match parse_item item with
          | `All rate ->
              if seen_all then raise (Bad "duplicate item \"all\"");
              ( List.fold_left
                  (fun acc k -> (k, rate) :: List.remove_assoc k acc)
                  spec all_kinds,
                true,
                seen,
                shots )
          | `One (k, rate) ->
              if List.mem k seen then
                raise
                  (Bad
                     (Fmt.str "duplicate fault kind %S" (kind_to_string k)));
              ((k, rate) :: List.remove_assoc k spec, seen_all, k :: seen, shots)
          | `Shot (k, event) ->
              if List.exists (fun (k', e') -> k' = k && e' = event) shots
              then
                raise
                  (Bad
                     (Fmt.str "duplicate one-shot %s@%d" (kind_to_string k)
                        event));
              (spec, seen_all, seen, shots @ [ (k, event) ]))
        ([], false, [], []) items
    in
    Ok (List.filter (fun (_, r) -> r > 0.0) spec, shots)
  with Bad m -> Error m

type t = {
  spec : spec;
  oneshots : oneshot list;  (** pinned processor faults, by window *)
  seed : int;
  mutable msg_events : int;  (** message-send events seen so far *)
  mutable proc_events : int;  (** statement-boundary events seen so far *)
  injected : (kind, int) Hashtbl.t;  (** per-kind injection counts *)
}

let make ?(seed = 42) ?(oneshots = []) (spec : spec) : t =
  {
    spec;
    oneshots;
    seed;
    msg_events = 0;
    proc_events = 0;
    injected = Hashtbl.create 8;
  }

(** The inert schedule: injects nothing, costs nothing. *)
let none : t = make []

(** A schedule with no positive rate and no one-shot never perturbs the
    run; the runtime skips checkpointing and WAL recording entirely for
    it. *)
let active (t : t) : bool = t.spec <> [] || t.oneshots <> []

let rate (t : t) (k : kind) : float =
  match List.assoc_opt k t.spec with Some r -> r | None -> 0.0

let record (t : t) (k : kind) =
  Hashtbl.replace t.injected k
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.injected k))

(* One {!Init.mix} round barely decorrelates consecutive event numbers
   (its avalanche is weak for small input deltas); two extra rounds fed
   with shifted copies of the accumulator scramble enough that nearby
   events give independent-looking draws over [0, 2^30). *)
let rnd (seed : int) (xs : int list) : int =
  let h = Init.mix seed xs in
  let h = Init.mix h [ h lsr 11; h lsr 7; h lsr 3; h ] in
  Init.mix h [ h lsr 13; h lsr 5; h ]

(* One Bernoulli decision: compare the draw's residue mod 1e6 against
   the rate scaled to the same range.  [salt] separates the message and
   processor event streams. *)
let roll (t : t) ~(salt : int) ~(event : int) (k : kind) : bool =
  let r = rate t k in
  r > 0.0
  && float_of_int (rnd t.seed [ salt; event; kind_tag k ] mod 1_000_000)
     < (r *. 1e6) -. 0.5

let msg_salt = 0x11
let proc_salt = 0x22
let pick_salt = 0x33

(** Decision for the next message-send event (each call consumes one
    event).  At most one kind fires — the first match in the fixed
    {!message_kinds} order — so a campaign's injuries are unambiguous. *)
let on_message (t : t) : kind option =
  if not (active t) then None
  else begin
    let event = t.msg_events in
    t.msg_events <- t.msg_events + 1;
    let k =
      List.find_opt (fun k -> roll t ~salt:msg_salt ~event k) message_kinds
    in
    Option.iter (record t) k;
    k
  end

(** Decision for the next processor heartbeat window: optionally stall
    or crash one processor (picked deterministically from the event
    id).  {!Recover} calls this once per heartbeat, not per statement,
    so failure rates track simulated progress. *)
let on_processor (t : t) ~(nprocs : int) : (int * kind) option =
  if not (active t) || nprocs = 0 then None
  else begin
    let event = t.proc_events in
    t.proc_events <- t.proc_events + 1;
    (* a pinned one-shot preempts the Bernoulli rolls for its window *)
    match
      List.find_opt (fun ((_ : kind), e) -> e = event) t.oneshots
    with
    | Some (k, _) ->
        record t k;
        let pid = rnd t.seed [ pick_salt; event ] mod nprocs in
        Some (pid, k)
    | None -> (
        match
          List.find_opt
            (fun k -> roll t ~salt:proc_salt ~event k)
            processor_kinds
        with
        | None -> None
        | Some k ->
            record t k;
            let pid = rnd t.seed [ pick_salt; event ] mod nprocs in
            Some (pid, k))
  end

(** Deterministic scale factor in [1, n] for a fault's magnitude (delay
    and stall durations), derived from the event that injected it. *)
let magnitude (t : t) ~(event : int) ~(n : int) : int =
  1 + (rnd t.seed [ 0x44; event ] mod max 1 n)

(* Index of the victim element inside a block of [n >= 1] values: the
   first value's integer image (an int itself, a real's IEEE bits high
   word then low word, a bool's 0/1) mixed from seed [0xB10C] (no
   [Random], like everything else here). *)
let block_pick (values : Value.t array) : int =
  let h =
    match values.(0) with
    | Value.I n -> Init.mix_step 0xB10C n
    | Value.R f ->
        let b = Int64.bits_of_float f in
        Init.mix_step
          (Init.mix_step 0xB10C (Int64.to_int (Int64.shift_right_logical b 32)))
          (Int64.to_int b)
    | Value.B b -> Init.mix_step 0xB10C (if b then 1 else 0)
  in
  h mod Array.length values

(** Deterministically perturb a payload value.  The perturbation always
    changes the value (and therefore its checksum image). *)
let corrupt_payload (p : Msg.payload) : Msg.payload =
  let flip = function
    | Value.I n -> Value.I (n lxor 1)
    | Value.R f ->
        Value.R (Int64.float_of_bits (Int64.logxor (Int64.bits_of_float f) 1L))
    | Value.B b -> Value.B (not b)
  in
  match p with
  | Msg.Scalar s -> Msg.Scalar { s with value = flip s.value }
  | Msg.Elem e -> Msg.Elem { e with value = flip e.value }
  | Msg.Block { values = [||]; _ } -> p
  | Msg.Block b ->
      (* a block is corrupted as a unit: one element's bits flip, the
         whole packet's checksum stops matching, and recovery must
         retransmit the entire region *)
      let values = Array.copy b.values in
      let pick = block_pick values in
      values.(pick) <- flip values.(pick);
      Msg.Block { b with values }

(** Per-kind injection counts of the campaign so far, in {!all_kinds}
    order, zero-count kinds omitted. *)
let injected (t : t) : (kind * int) list =
  List.filter_map
    (fun k ->
      match Hashtbl.find_opt t.injected k with
      | Some n when n > 0 -> Some (k, n)
      | _ -> None)
    all_kinds

let total_injected (t : t) : int =
  Hashtbl.fold (fun _ n acc -> acc + n) t.injected 0
