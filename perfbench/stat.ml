(* Order statistics of one run.  Every per-run statistic is a median or
   a percentile: on a shared host single samples are bimodal, medians
   are not. *)

let sorted (a : float array) =
  let b = Array.copy a in
  Array.sort compare b;
  b

(* Nearest-rank percentile of an ascending array. *)
let rank n p = max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1))
let pct_sorted (s : float array) p = if Array.length s = 0 then 0.0 else s.(rank (Array.length s) p)
let percentile a p = pct_sorted (sorted a) p

let median (a : float array) =
  if Array.length a = 0 then 0.0
  else
    let s = sorted a in
    let n = Array.length s in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let gmean (a : float array) =
  if Array.length a = 0 then 0.0
  else
    exp
      (Array.fold_left (fun acc x -> acc +. log x) 0.0 a
      /. float_of_int (Array.length a))

(** Where a percentile falls: the op class at its rank, the share of
    that class among the ops within a window around the rank, and the
    latency ratio across the window — near 1 inside a class, large in a
    gap between classes.  The window is a quarter of the smaller tail
    (p50: +-12.5%, p90: +-2.5%, p99: +-0.25% of the ops). *)
let placement ~(classes : string array) (lat : float array) p :
    Phpf_serve.Jsonx.t =
  let n = Array.length lat in
  if n = 0 then Phpf_serve.Jsonx.Null
  else
    let idx = Array.init n Fun.id in
    Array.stable_sort (fun i j -> compare lat.(i) lat.(j)) idx;
    let r = rank n p in
    let w = max 1 (int_of_float (float_of_int n *. Float.min p (1.0 -. p) /. 4.0)) in
    let at k = lat.(idx.(max 0 (min (n - 1) k))) in
    let same = ref 0 and tot = ref 0 in
    for k = max 0 (r - w) to min (n - 1) (r + w) do
      incr tot;
      if classes.(idx.(k)) = classes.(idx.(r)) then incr same
    done;
    let open Phpf_serve.Jsonx in
    Obj
      [
        ("p", Float p);
        ("class", Str classes.(idx.(r)));
        ("ms", Float (at r));
        ("class_share", Float (float_of_int !same /. float_of_int !tot));
        ("window_ms", List [ Float (at (r - w)); Float (at (r + w)) ]);
        ("gap", Float (at (r + w) /. at (r - w)));
        ("samples_beyond", Int (n - 1 - r));
      ]

(** Median latency of each op class, slowest first. *)
let class_medians ~(classes : string array) (lat : float array) : Phpf_serve.Jsonx.t =
  let by = Hashtbl.create 64 in
  Array.iteri
    (fun i c -> Hashtbl.replace by c (lat.(i) :: Option.value ~default:[] (Hashtbl.find_opt by c)))
    classes;
  Hashtbl.fold (fun c l acc -> (c, median (Array.of_list l), List.length l) :: acc) by []
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
  |> List.map (fun (c, m, k) ->
         Phpf_serve.Jsonx.List [ Phpf_serve.Jsonx.Str c; Phpf_serve.Jsonx.Float m; Phpf_serve.Jsonx.Int k ])
  |> fun l -> Phpf_serve.Jsonx.List l
