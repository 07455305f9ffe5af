(* Monotonic time and the span recorder of traced runs.

   Spans live in growable parallel arrays written only by the main
   domain: serve jobs on worker domains return their boundary
   timestamps and the main domain records the spans afterwards.  Once
   the arrays have grown, recording a span allocates nothing on the
   minor heap, so it leaves the [_kw] counts of the calls it wraps
   untouched. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6

type t = {
  mutable len : int;
  mutable name : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable words : float array;  (** minor words allocated inside *)
  mutable op : int array;
  mutable parent : int array;  (** -1 for an op's root span *)
  mutable tid : int array;  (** domain that ran the span *)
  mutable cycle : int array;
}

let rec_ =
  {
    len = 0;
    name = [||];
    t0 = [||];
    t1 = [||];
    words = [||];
    op = [||];
    parent = [||];
    tid = [||];
    cycle = [||];
  }

(* Set by the runner: spans are recorded only in traced cycles. *)
let on = ref false
let cycle = ref 0

let names : (string, int) Hashtbl.t = Hashtbl.create 64
let name_arr = ref [||]

let intern (s : string) : int =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names s i;
      name_arr := Array.append !name_arr [| s |];
      i

let name_of i = !name_arr.(i)

let grow () =
  let n = max 1024 (2 * Array.length rec_.name) in
  let ext a d =
    let b = Array.make n d in
    Array.blit a 0 b 0 rec_.len;
    b
  in
  rec_.name <- ext rec_.name 0;
  rec_.t0 <- ext rec_.t0 0;
  rec_.t1 <- ext rec_.t1 0;
  rec_.words <- ext rec_.words 0.0;
  rec_.op <- ext rec_.op 0;
  rec_.parent <- ext rec_.parent 0;
  rec_.tid <- ext rec_.tid 0;
  rec_.cycle <- ext rec_.cycle 0

(** Record a finished span; returns its index (a parent for later
    children). *)
let add ~name ~t0 ~t1 ~words ~op ~parent ~tid : int =
  if rec_.len = Array.length rec_.name then grow ();
  let i = rec_.len in
  rec_.name.(i) <- name;
  rec_.t0.(i) <- t0;
  rec_.t1.(i) <- t1;
  rec_.words.(i) <- words;
  rec_.op.(i) <- op;
  rec_.parent.(i) <- parent;
  rec_.tid.(i) <- tid;
  rec_.cycle.(i) <- !cycle;
  rec_.len <- i + 1;
  i

(** Open an op's root span now; close it with {!close}. *)
let open_root ~name ~op : int =
  add ~name ~t0:(now_ns ()) ~t1:0 ~words:(Gc.minor_words ()) ~op ~parent:(-1)
    ~tid:0

let close (i : int) : unit =
  let w = Gc.minor_words () in
  rec_.t1.(i) <- now_ns ();
  rec_.words.(i) <- w -. rec_.words.(i)

(* Boundary cursor for back-to-back child spans: each [mark] closes the
   interval since the previous mark as one span. *)
type cursor = { root : int; mutable t : int; mutable w : float }

let cursor (root : int) : cursor =
  { root; t = now_ns (); w = Gc.minor_words () }

let mark (c : cursor) (name : int) : unit =
  let w = Gc.minor_words () in
  let t = now_ns () in
  ignore
    (add ~name ~t0:c.t ~t1:t ~words:(w -. c.w) ~op:rec_.op.(c.root)
       ~parent:c.root ~tid:0);
  c.t <- t;
  c.w <- Gc.minor_words ()

(** Restart [c]'s interval at now (before a call whose inner
    boundaries {!mark} records). *)
let reset (c : cursor) : unit =
  c.t <- now_ns ();
  c.w <- Gc.minor_words ()

(** Time one call as a child span of [c]'s root. *)
let child (c : cursor) (name : int) (f : unit -> 'a) : 'a =
  reset c;
  let r = f () in
  mark c name;
  r

(** Per (name, cycle) self time (ns) and self allocation (words) of
    every recorded span: a span's duration minus what its children
    cover. *)
let self_totals ~(ncycles : int) :
    (string, float array * float array) Hashtbl.t =
  let n = rec_.len in
  let child_ns = Array.make n 0 and child_w = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let p = rec_.parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (rec_.t1.(i) - rec_.t0.(i));
      child_w.(p) <- child_w.(p) +. rec_.words.(i)
    end
  done;
  let tbl = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let key = name_of rec_.name.(i) in
    let ns, w =
      match Hashtbl.find_opt tbl key with
      | Some v -> v
      | None ->
          let v = (Array.make ncycles 0.0, Array.make ncycles 0.0) in
          Hashtbl.add tbl key v;
          v
    in
    let c = rec_.cycle.(i) in
    ns.(c) <- ns.(c) +. float_of_int (rec_.t1.(i) - rec_.t0.(i) - child_ns.(i));
    w.(c) <- w.(c) +. (rec_.words.(i) -. child_w.(i))
  done;
  tbl

(** Summed duration (ns) of root spans and of their self time, per
    cycle: [1 - self/duration] is the share of op time the layer spans
    account for. *)
let root_totals ~(ncycles : int) : float array * float array =
  let n = rec_.len in
  let child_ns = Array.make n 0 in
  for i = 0 to n - 1 do
    let p = rec_.parent.(i) in
    if p >= 0 then child_ns.(p) <- child_ns.(p) + (rec_.t1.(i) - rec_.t0.(i))
  done;
  let dur = Array.make ncycles 0.0 and self = Array.make ncycles 0.0 in
  for i = 0 to n - 1 do
    if rec_.parent.(i) < 0 then begin
      let c = rec_.cycle.(i) and d = rec_.t1.(i) - rec_.t0.(i) in
      dur.(c) <- dur.(c) +. float_of_int d;
      self.(c) <- self.(c) +. float_of_int (d - child_ns.(i))
    end
  done;
  (dur, self)

(** Write every span as Chrome trace-event JSON ("X" complete events,
    microseconds), which Perfetto and chrome://tracing open. *)
let write_chrome (path : string) : unit =
  let oc = open_out_bin path in
  let base = if rec_.len = 0 then 0 else rec_.t0.(0) in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for i = 0 to rec_.len - 1 do
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%d,\"cycle\":%d,\"kw\":%.3f}}"
      (name_of rec_.name.(i))
      rec_.tid.(i)
      (float_of_int (rec_.t0.(i) - base) /. 1e3)
      (float_of_int (rec_.t1.(i) - rec_.t0.(i)) /. 1e3)
      rec_.op.(i) rec_.parent.(i) rec_.cycle.(i)
      (rec_.words.(i) /. 1e3)
  done;
  output_string oc "]}\n";
  close_out oc
