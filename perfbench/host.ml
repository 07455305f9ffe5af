(* The host record of every run, the calibration kernel that separates
   host drift from a regression, peak memory, and stop-the-world GC
   time read from the runtime's own event ring. *)

let read_lines path =
  try
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    go []
  with Sys_error _ -> []

(* "Key:   value unit" from /proc/self/status. *)
let proc_status key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = key ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (read_lines "/proc/self/status")

(* CPUs this process may run on, as nproc(1) counts them. *)
let nproc () =
  match proc_status "Cpus_allowed_list" with
  | None -> 1
  | Some s ->
      List.fold_left
        (fun acc r ->
          match String.split_on_char '-' (String.trim r) with
          | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
          | [ _ ] -> acc + 1
          | _ -> acc)
        0
        (String.split_on_char ',' s)

let peak_rss_mb () =
  match proc_status "VmHWM" with
  | Some s -> (
      match String.split_on_char ' ' s with
      | kb :: _ -> float_of_string kb /. 1024.0
      | [] -> 0.0)
  | None -> 0.0

(* A fixed integer kernel: no allocation, no memory traffic, so its
   time moves only with the CPU the host gives this process. *)
let calib_ms () =
  let t0 = Spans.now_ns () in
  let x = ref 0x9e3779b9 in
  for i = 1 to 20_000_000 do
    x := ((!x * 0x5bd1e995) + i) land 0xffffffff
  done;
  ignore (Sys.opaque_identity !x);
  Spans.ms_of_ns (Spans.now_ns () - t0)

(* A process starts on a CPU that takes a few hundred milliseconds to
   reach speed (the first calibration reads up to twice the later ones):
   spin the calibration kernel until two readings agree within 5%, and
   return the last. *)
let warm_up () =
  let rec go prev n =
    let c = calib_ms () in
    if n = 0 || Float.abs (c -. prev) < 0.05 *. c then c else go c (n - 1)
  in
  go (calib_ms ()) 20

(* ------------------------------------------------------------------ *)
(* Stop-the-world GC time from runtime_events                         *)
(* ------------------------------------------------------------------ *)

(* Minor collections stop every domain; EV_MAJOR_GC_STW is the
   stop-the-world end of a major cycle. *)
let stw = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_GC_STW -> true
  | _ -> false

let pause_ns = ref 0
let lost = ref 0
let begun : (int, int) Hashtbl.t = Hashtbl.create 8
let cursor = ref None

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun ring ts phase ->
      if stw phase then
        Hashtbl.replace begun ring
          (Int64.to_int (Runtime_events.Timestamp.to_int64 ts)))
    ~runtime_end:(fun ring ts phase ->
      if stw phase then
        match Hashtbl.find_opt begun ring with
        | Some t0 ->
            Hashtbl.remove begun ring;
            pause_ns :=
              !pause_ns
              + (Int64.to_int (Runtime_events.Timestamp.to_int64 ts) - t0)
        | None -> ())
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let gc_events_start () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

(* Drain the ring; call often enough that it never wraps. *)
let gc_poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Reference kernel: the scale of every reported time                  *)
(* ------------------------------------------------------------------ *)

(* This host's speed for allocation-heavy code swings by 1.5x over
   minutes while an integer loop moves by 10% (see README.md).  A fixed
   piece of compiler work that this repository does not contain — the
   OCaml compiler's own parser (compiler-libs), four times over a
   generated 20 KB source — slows down with the workload, so the run
   reports its times on the scale where this kernel takes
   [ref_nominal_ms].  The source is small so that its syntax tree does
   not raise the process's peak memory. *)
let ref_src =
  let b = Buffer.create 20_000 in
  for i = 0 to 125 do
    Printf.bprintf b
      "let f%d x y = match x with\n  | [] -> List.map (fun z -> z + %d) y\n  | h :: t -> if h > %d then f%d t (h :: y) else { a = h; b = [| x; y |] } :: g%d t\n"
      i i i (max 0 (i - 1)) i
  done;
  Buffer.contents b

let ref_nominal_ms = 20.0

let parse_ms () =
  let t0 = Spans.now_ns () in
  for _ = 1 to 4 do
    ignore (Sys.opaque_identity (Parse.implementation (Lexing.from_string ref_src)))
  done;
  Spans.ms_of_ns (Spans.now_ns () - t0)

(* The reference runs at the workload's parallelism: one copy per
   worker domain at once, the sample being their mean time, so a
   2-domain workload is scaled by the speed of both CPUs. *)
let ref_domains = ref 1

let ref_ms ?(domains = !ref_domains) () =
  let helpers = List.init (domains - 1) (fun _ -> Domain.spawn parse_ms) in
  let own = parse_ms () in
  let all = own :: List.map Domain.join helpers in
  List.fold_left ( +. ) 0.0 all /. float_of_int (List.length all)

let ref_samples : float list ref = ref []
let ref_last = ref 0

(* Called between ops: one reference sample every half second. *)
let sample_ref () =
  let t = Spans.now_ns () in
  if t - !ref_last > 500_000_000 then begin
    ref_samples := ref_ms () :: !ref_samples;
    ref_last := Spans.now_ns ()
  end
