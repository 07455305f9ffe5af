(* Workload [serve]: the [phpfc serve --batch] path on a pool of worker
   domains.  Each job decodes one request line, hands it to the engine
   and encodes the response.  Requests are drawn over (program, problem
   size, options, grid override, action), Zipf-like in the problem size
   only; each epoch starts with a cold cache and replays the run's
   request list in batches, and a batch caller waits for its batch, so
   the loop is closed. *)

open Hpf_lang
open Hpf_benchmarks
module Engine = Phpf_serve.Engine
module Proto = Phpf_serve.Proto
module Jsonx = Phpf_serve.Jsonx

(* Program families, each with its base problem size and number of
   variants.  A variant is the family at another problem size: a new
   cache key whose compile costs the same as its base.  The figure
   kernels simulate in under a few milliseconds at any size, so they
   carry most variants; the paper kernels' simulation grows as n^2 or
   n^3, so their sizes stay within a few steps of a small base.
   README.md records the run that fixed the counts. *)
let families : (string * int * int * (int -> Ast.program)) list =
  [
    ("fig1", 16, 192, fun n -> Fig_examples.fig1 ~n ~p:4 ());
    ("fig7", 16, 192, fun n -> Fig_examples.fig7 ~n ~p:4 ());
    ("fig2", 16, 192, fun n -> Fig_examples.fig2 ~n ~np:4 ());
    ("appsp_2d", 6, 8, fun n -> Appsp.program_2d ~n ~niter:1 ~p1:2 ~p2:2);
    ("dgefa", 12, 8, fun n -> Dgefa.program ~n ~p:4);
    ("tomcatv", 10, 16, fun n -> Tomcatv.program ~n ~niter:1 ~p:4);
  ]

(* Families, grids, option sets and actions are drawn uniformly, as
   [Serve.workload] cycles programs, option sets and actions.  Only the
   problem size is skewed: variant r of a family is drawn with weight
   1/(r+1), so the base size is the most requested. *)
let grids_of_rank = function 1 -> [ [ 4 ]; [ 2 ]; [ 8 ] ] | _ -> [ [ 2; 2 ]; [ 4; 2 ]; [ 2; 4 ] ]

(* Requests in one epoch, and per [Pool.map_ordered] call. *)
let epoch_requests = 14_000
let batch = 500

type request = { line : string; key : string; action : Proto.action; family : string }

(* Zipf sampler over [0, n) by inverse CDF: rank r has weight 1/(r+1). *)
let zipf n : Random.State.t -> int =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  fun rng ->
    let u = Random.State.float rng !acc in
    let rec go i = if i >= n - 1 || u < cdf.(i) then i else go (i + 1) in
    go 0

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let grid_rank (p : Ast.program) =
  List.find_map
    (function Ast.Processors { extents; _ } -> Some (List.length extents) | _ -> None)
    p.Ast.directives
  |> Option.value ~default:1

let setup ~(seed : int) : request array =
  let rng = Random.State.make [| seed |] in
  let fams = Array.of_list families in
  let pick_variant = Array.map (fun (_, _, v, _) -> zipf v) fams in
  let texts = Hashtbl.create 256 in
  let program f v =
    match Hashtbl.find_opt texts (f, v) with
    | Some x -> x
    | None ->
        let _, base, _, mk = fams.(f) in
        let p = mk (base + v) in
        let x = (Pp.program_to_string p, grid_rank p) in
        Hashtbl.add texts (f, v) x;
        x
  in
  Array.init epoch_requests (fun i ->
      let f = Random.State.int rng (Array.length fams) in
      let v = pick_variant.(f) rng in
      let text, rank = program f v in
      let grid = pick rng (grids_of_rank rank) in
      let _, options = pick rng Phpf_serve.Serve.workload_option_sets in
      let action = pick rng Phpf_serve.Serve.workload_actions in
      let r = { Proto.id = i + 1; action; program = text; grid = Some grid; options } in
      let name, _, _, _ = fams.(f) in
      {
        line = Proto.request_to_line r;
        key = Engine.cache_key r;
        action;
        family = name;
      })

(* What one job reports back to the main domain. *)
type job = {
  ok : bool;
  cached : bool;
  body : string;
  t : int array;  (** decode start, engine start, engine end, encode end *)
  w : float array;  (** minor words at the same boundaries *)
  tid : int;
}

let job (engine : Engine.t) ~traced (i : int) (r : request) () : job =
  let t = Array.make 4 0 and w = Array.make 4 0.0 in
  let stamp k =
    if traced || k = 0 || k = 3 then begin
      w.(k) <- Gc.minor_words ();
      t.(k) <- Spans.now_ns ()
    end
  in
  stamp 0;
  match Proto.request_of_line ~default_id:(i + 1) r.line with
  | Error _ ->
      stamp 3;
      { ok = false; cached = false; body = ""; t; w; tid = (Domain.self () :> int) }
  | Ok req ->
      stamp 1;
      let o = Engine.handle engine req in
      stamp 2;
      let line = Phpf_serve.Serve.response_line ~timing:false o in
      ignore (Sys.opaque_identity line);
      stamp 3;
      { ok = o.Engine.ok; cached = o.Engine.cached; body = o.Engine.body; t; w; tid = (Domain.self () :> int) }

let id_root = Spans.intern "op.serve"
let id_decode = Spans.intern "serve.decode"
let id_encode = Spans.intern "serve.encode"
let id_hit = Spans.intern "serve.hit"
let id_miss = Spans.intern "serve.miss"

let record_spans (op0 : int) (jobs : job array) =
  Array.iteri
    (fun i j ->
      let span name a b parent =
        Spans.add ~name ~t0:j.t.(a) ~t1:j.t.(b) ~words:(j.w.(b) -. j.w.(a)) ~op:(op0 + i)
          ~parent ~tid:j.tid
      in
      let root = span id_root 0 3 (-1) in
      ignore (span id_decode 0 1 root);
      ignore (span (if j.cached then id_hit else id_miss) 1 2 root);
      ignore (span id_encode 2 3 root))
    jobs

(* Every occurrence of one key in a run must carry the same body. *)
let bodies : (string, string) Hashtbl.t = Hashtbl.create 8192

let check (r : request) (j : job) =
  j.ok
  &&
  match Hashtbl.find_opt bodies r.key with
  | None ->
      Hashtbl.add bodies r.key j.body;
      true
  | Some b -> String.equal b j.body

(* Cache behaviour of one epoch, from the uncached outcomes of each
   key. *)
let count_memo (reqs : request array) (jobs : job array) =
  let by_key = Hashtbl.create 4096 in
  Array.iteri
    (fun i j ->
      if not j.cached then
        Hashtbl.replace by_key reqs.(i).key
          ((j.t.(1), j.t.(2)) :: Option.value ~default:[] (Hashtbl.find_opt by_key reqs.(i).key)))
    jobs;
  let misses = ref 0 and racing = ref 0 and evicted = ref 0 in
  Hashtbl.iter
    (fun _ ivs ->
      let ivs = List.sort compare ivs in
      misses := !misses + List.length ivs;
      (* the first compute of a key is expected; a later one raced when
         it overlaps another compute of the key, else the key had been
         evicted in between *)
      List.iteri
        (fun k (a0, a1) ->
          if k > 0 then
            if List.exists (fun (b0, b1) -> (b0, b1) <> (a0, a1) && a0 < b1 && b0 < a1) ivs
            then incr racing
            else incr evicted)
        ivs)
    by_key;
  let hits = Array.length jobs - !misses in
  Runner.count "memo.misses" (float_of_int !misses);
  Runner.count "memo.racing_computes" (float_of_int !racing);
  Runner.count "memo.evicted_recomputes" (float_of_int !evicted);
  Runner.count "memo.hit_ratio" (float_of_int hits /. float_of_int (Array.length jobs))

(* The epochs of a run as runner cycles: each starts from a cold cache
   and replays the request list, one [Pool.map_ordered] batch per
   segment. *)
let cycles ~(domains : int) (reqs : request array) : traced:bool -> Runner.cycle =
  let n = Array.length reqs in
  fun ~traced ->
    let engine = Engine.create () in
    let jobs = Array.make n None in
    let op0 = !Runner.next_op in
    let segment k =
      let lo = k * batch and hi = min n ((k + 1) * batch) in
      let out =
        Phpf_serve.Pool.map_ordered ~domains
          (List.init (hi - lo) (fun i -> job engine ~traced (lo + i) reqs.(lo + i)))
      in
      List.mapi
        (fun i j ->
          let r = reqs.(lo + i) in
          jobs.(lo + i) <- Some j;
          {
            Runner.idx = lo + i;
            ns = j.t.(3) - j.t.(0);
            ok = check r j;
            cls =
              (if j.cached then "hit"
               else "miss:" ^ r.family ^ "/" ^ Proto.action_to_string r.action);
          })
        out
    in
    let finish ~seg_ns =
      let ran = Array.fold_left (fun acc j -> if Option.is_some j then acc + 1 else acc) 0 jobs in
      let jobs = Array.map Option.get (Array.sub jobs 0 ran) in
      Runner.next_op := op0 + ran;
      if traced then begin
        record_spans op0 jobs;
        count_memo reqs jobs;
        let busy = Array.fold_left (fun acc j -> acc + (j.t.(3) - j.t.(0))) 0 jobs in
        let wall = Array.fold_left (fun acc s -> acc + max 0 s) 0 seg_ns in
        Runner.count "pool.busy_ratio"
          (float_of_int busy /. (float_of_int domains *. float_of_int wall))
      end
    in
    { Runner.order = Array.init ((n + batch - 1) / batch) Fun.id; segment; finish }

(* Simulated run time (ms) of every simulate response of an epoch: a
   popular program counts as often as it is asked for, so the rare keys
   a seed happens to draw barely move the mean. *)
let gen_times (reqs : request array) : float array =
  Array.to_list reqs
  |> List.filter_map (fun r ->
         if r.action <> Proto.Simulate then None
         else
           Option.bind (Hashtbl.find_opt bodies r.key) (fun b ->
               Option.map (fun t -> t *. 1e3)
                 (Option.bind (Jsonx.member "time" (Jsonx.of_string b)) Jsonx.to_float_opt)))
  |> Array.of_list
