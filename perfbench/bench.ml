(* perfbench: one run of one workload.

     bench.exe --workload compile|simulate|serve --seed N --seconds S
               --trace 0|1 [--domains D] [--chrome FILE]

   Prints a host/placement record line, then as its last line one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  An untraced
   run reports the end-to-end metrics, a traced run the per-layer ones
   (perfbench/README.md lists both). *)

module Jsonx = Phpf_serve.Jsonx

let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("latency_p99_ms", "ms");
    ("latency_gmean_ms", "ms");
    ("gen_time_gmean_ms", "sim_ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("ok_ratio", "ratio");
  ]

let timed_layers prefix names =
  List.concat_map (fun n -> [ (prefix ^ n ^ "_ms", "ms"); (prefix ^ n ^ "_kw", "kw") ]) names

let per_layer =
  timed_layers "lang." [ "parse" ]
  @ timed_layers "pass." Phpf_core.Compiler.pass_names
  @ [
      ("program.stmts", "count");
      ("ir.ops_lowered", "count");
      ("ir.ops_final", "count");
      ("opt.rewrites", "count");
    ]
  @ timed_layers "verify." Phpf_verify.Verifier.pass_names
  @ [
      ("spmd.trace_sim_ms", "ms");
      ("spmd.trace_sim_kw", "kw");
      ("spmd.seq_interp_ms", "ms");
      ("spmd.stmt_instances", "count");
      ("spmd.exec_ms", "ms");
      ("spmd.exec_kw", "kw");
      ("spmd.validate_ms", "ms");
      ("spmd.failover_ms", "ms");
      ("msg.packets", "count");
      ("msg.blocks", "count");
      ("msg.bytes", "B");
      ("recover.refetches", "count");
      ("recover.replays", "count");
      ("recover.restores", "count");
      ("sim.packets", "count");
      ("sim.bytes", "B");
      ("sim.comm_time_ms", "sim_ms");
      ("serve.decode_ms", "ms");
      ("serve.encode_ms", "ms");
      ("serve.hit_ms", "ms");
      ("serve.miss_ms", "ms");
      ("memo.hit_ratio", "ratio");
      ("memo.misses", "count");
      ("memo.racing_computes", "count");
      ("memo.evicted_recomputes", "count");
      ("pool.busy_ratio", "ratio");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.pause_ms", "ms");
      ("host.calib_ms", "ms");
      ("host.ref_ms", "ms");
      ("host.nproc", "count");
      ("host.recommended_domains", "count");
      ("trace.overhead_pct", "%");
      ("trace.coverage", "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload compile|simulate|serve --seed N --seconds S --trace 0|1 [--domains D] [--chrome FILE]";
  exit 2

let args = Array.to_list Sys.argv |> List.tl

let arg name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: tl -> go tl
    | [] -> None
  in
  go args

let int_arg name default =
  match arg name with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let cycles_where (r : Runner.result) traced =
  List.filter (fun c -> r.Runner.traced.(c) = traced) (List.init r.Runner.ncycles Fun.id)

(* Each op's median latency (ms) over the given cycles, with the op's
   class: a per-run statistic that a burst of host noise in one cycle
   does not move.  An op that failed its gate in any cycle is left out;
   the result's [correct], [failed] and [ok_ratio] report it. *)
let op_medians (r : Runner.result) cycles ~(classes : string array) :
    float array * string array =
  let n = Array.length r.Runner.lat_ns.(0) in
  let passed =
    List.filter
      (fun i ->
        List.for_all (fun c -> r.Runner.lat_ns.(c).(i) < 0 || r.Runner.ok.(c).(i)) cycles)
      (List.init n Fun.id)
  in
  let med i =
    Stat.median
      (Array.of_list
         (List.filter_map
            (fun c ->
              let l = r.Runner.lat_ns.(c).(i) in
              if l >= 0 then Some (Spans.ms_of_ns l) else None)
            cycles))
  in
  (Array.of_list (List.map med passed), Array.of_list (List.map (fun i -> classes.(i)) passed))

(* A cycle's duration (s) from each segment's median over the cycles. *)
let median_cycle_s (r : Runner.result) cycles =
  let s = ref 0.0 in
  for j = 0 to Array.length r.Runner.seg_ns.(0) - 1 do
    let cs = List.filter (fun c -> r.Runner.seg_ns.(c).(j) >= 0) cycles in
    s :=
      !s
      +. Stat.median (Array.of_list (List.map (fun c -> Spans.ms_of_ns r.Runner.seg_ns.(c).(j)) cs))
  done;
  !s /. 1e3

let per_layer_values (r : Runner.result) ~workers ~extra : (string * float) list =
  let traced = cycles_where r true in
  let med f = Stat.median (Array.of_list (List.map f traced)) in
  let spans = Spans.self_totals ~ncycles:r.Runner.ncycles in
  let span_metric name =
    let base = String.sub name 0 (String.length name - 3) in
    match Hashtbl.find_opt spans base with
    | None -> None
    | Some (ns, w) ->
        if Filename.check_suffix name "_ms" then Some (med (fun c -> ns.(c) /. 1e6))
        else if Filename.check_suffix name "_kw" then Some (med (fun c -> w.(c) /. 1e3))
        else None
  in
  let dur, self = Spans.root_totals ~ncycles:r.Runner.ncycles in
  let sum a = List.fold_left (fun acc c -> acc +. a.(c)) 0.0 traced in
  (* the workers' time as the runner measured it, around each segment
     and outside every span *)
  let worker_ns =
    float_of_int workers
    *. sum
         (Array.map
            (fun seg -> float_of_int (Array.fold_left (fun acc s -> acc + max 0 s) 0 seg))
            r.Runner.seg_ns)
  in
  (* the first cycle runs cold: compare against the later untraced ones
     when there are any *)
  let untraced = match cycles_where r false with _ :: (_ :: _ as warm) -> warm | u -> u in
  let derived =
    [
      ("trace.coverage", (sum dur -. sum self) /. worker_ns);
      ( "trace.overhead_pct",
        100.0 *. ((median_cycle_s r traced /. median_cycle_s r untraced) -. 1.0) );
    ]
  in
  List.map
    (fun (name, _) ->
      let v =
        match List.assoc_opt name extra with
        | Some v -> v
        | None -> (
            match List.assoc_opt name derived with
            | Some v -> v
            | None -> (
                match span_metric name with
                | Some v -> v
                | None ->
                    med (fun c ->
                        Option.value ~default:0.0 (Hashtbl.find_opt Runner.counts (name, c)))))
      in
      (name, v))
    per_layer

let metric_json (name, unit_, v) =
  (name, Jsonx.Obj [ ("value", Jsonx.Float v); ("unit", Jsonx.Str unit_) ])

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

type workload = {
  workers : int;  (** domains the timed phase runs on *)
  setup_reps : int;  (** set-ups per timed set-up sample *)
  prepare : seed:int -> unit;  (** the set-up: inputs, compiled points *)
  execute : seconds:float -> trace:bool -> seed:int -> Runner.result;  (** timed phase *)
  gen_times : unit -> float array;
  extra_layers : unit -> (string * float) list;
}

let of_ops ~seconds ~trace ~seed ~root_name (ops : Runner.op array) =
  Runner.run ~seconds ~trace ~nops:(Array.length ops) (Runner.of_ops ~seed ~root_name ops)

let compile_workload () =
  let pts = ref [||] in
  {
    workers = 1;
    setup_reps = 10;
    prepare = (fun ~seed:_ -> pts := Compile_wl.setup ());
    execute =
      (fun ~seconds ~trace ~seed ->
        of_ops ~seconds ~trace ~seed ~root_name:"op.compile" (Compile_wl.ops !pts));
    gen_times = (fun () -> Compile_wl.gen_times !pts);
    extra_layers = (fun () -> []);
  }

let simulate_workload () =
  let pts = ref [||] in
  {
    workers = 1;
    setup_reps = 1;
    prepare = (fun ~seed:_ -> pts := Simulate_wl.setup ());
    execute =
      (fun ~seconds ~trace ~seed ->
        of_ops ~seconds ~trace ~seed ~root_name:"op.simulate" (Simulate_wl.ops !pts));
    gen_times = Simulate_wl.gen_times;
    extra_layers = (fun () -> [ ("spmd.seq_interp_ms", Simulate_wl.seq_interp_ms !pts) ]);
  }

let serve_workload ~domains =
  let reqs = ref [||] in
  {
    workers = domains;
    setup_reps = 1;
    prepare = (fun ~seed -> reqs := Serve_wl.setup ~seed);
    execute =
      (fun ~seconds ~trace ~seed:_ ->
        Runner.run ~seconds ~trace ~nops:(Array.length !reqs) (Serve_wl.cycles ~domains !reqs));
    gen_times = (fun () -> Serve_wl.gen_times !reqs);
    extra_layers = (fun () -> []);
  }

(* Timed set-up samples, each of [setup_reps] set-ups. *)
let setup_samples = 11

let () =
  let name = Option.value ~default:"" (arg "--workload") in
  let seed = int_arg "--seed" 1 in
  let seconds = float_of_int (int_arg "--seconds" 10) in
  let trace =
    match arg "--trace" with Some "1" -> true | Some "0" | None -> false | _ -> usage ()
  in
  let domains = int_arg "--domains" 2 in
  let w =
    match name with
    | "compile" -> compile_workload ()
    | "simulate" -> simulate_workload ()
    | "serve" -> serve_workload ~domains
    | _ -> usage ()
  in
  Host.ref_domains := w.workers;
  let calib0 = Host.warm_up () in
  (* the first parse runs cold; it is not a sample *)
  ignore (Host.ref_ms ());
  (* Each set-up sample is followed by a reference sample on one domain,
     as the set-up runs, and is reported on the scale of its own moment,
     so host drift between the set-up and the timed phase cancels. *)
  let setup =
    Array.init setup_samples (fun _ ->
        let t0 = Spans.now_ns () in
        for _ = 1 to w.setup_reps do
          w.prepare ~seed
        done;
        let s = Spans.ms_of_ns (Spans.now_ns () - t0) /. 1e3 /. float_of_int w.setup_reps in
        (s, Host.ref_ms ~domains:1 ()))
  in
  let setup_s = Array.map fst setup in
  let setup_ref_s =
    Stat.median (Array.map (fun (s, r) -> s *. Host.ref_nominal_ms /. r) setup)
  in
  if trace then Host.gc_events_start ();
  let r = w.execute ~seconds ~trace ~seed in
  let ops_per_cycle = Array.length r.Runner.lat_ns.(0) in
  let attempted = ref 0 and failed = ref 0 in
  Array.iteri
    (fun c lat ->
      Array.iteri
        (fun i l ->
          if l >= 0 then begin
            incr attempted;
            if not r.Runner.ok.(c).(i) then incr failed
          end)
        lat)
    r.Runner.lat_ns;
  let attempted = !attempted and failed = !failed in
  let gen = if trace then [||] else w.gen_times () in
  let extra = w.extra_layers () in
  let calib1 = Host.calib_ms () in
  Host.ref_samples := Host.ref_ms () :: !Host.ref_samples;
  let ref_ms = Stat.median (Array.of_list !Host.ref_samples) in
  (* every wall-clock time is reported on the reference scale *)
  let scale = Host.ref_nominal_ms /. ref_ms in
  let untraced = cycles_where r false in
  let lat, cls = op_medians r untraced ~classes:r.Runner.cls.(List.hd untraced) in
  let pct = Stat.percentile lat in
  let raw =
    [
      ("ops_per_s", float_of_int ops_per_cycle /. median_cycle_s r untraced);
      ("latency_p50_ms", pct 0.50);
      ("latency_p90_ms", pct 0.90);
      ("latency_p99_ms", pct 0.99);
      ("latency_gmean_ms", Stat.gmean lat);
      ("gen_time_gmean_ms", Stat.gmean gen);
      ("setup_s", Stat.median setup_s);
      ("peak_rss_mb", Host.peak_rss_mb ());
      ("ok_ratio", float_of_int (attempted - failed) /. float_of_int attempted);
    ]
  in
  let scaled (name, unit_, v) =
    match unit_ with
    | _ when name = "setup_s" -> (name, unit_, setup_ref_s)
    | ("ms" | "s") when not (String.starts_with ~prefix:"host." name) -> (name, unit_, v *. scale)
    | "1/s" -> (name, unit_, v /. scale)
    | _ -> (name, unit_, v)
  in
  let metrics =
    if trace then begin
      let extra =
        extra
        @ [
            ("host.calib_ms", (calib0 +. calib1) /. 2.0);
            ("host.ref_ms", ref_ms);
            ("host.nproc", float_of_int (Host.nproc ()));
            ("host.recommended_domains", float_of_int (Domain.recommended_domain_count ()));
          ]
      in
      Option.iter Spans.write_chrome (arg "--chrome");
      if !Host.lost > 0 then Printf.eprintf "perfbench: %d GC events lost\n" !Host.lost;
      List.map2 (fun (n, u) (_, v) -> scaled (n, u, v)) per_layer (per_layer_values r ~workers:w.workers ~extra)
    end
    else List.map (fun (n, u) -> scaled (n, u, List.assoc n raw)) end_to_end
  in
  let info =
    Jsonx.Obj
      [
        ("workload", Jsonx.Str name);
        ("seed", Jsonx.Int seed);
        ( "host",
          Jsonx.Obj
            [
              ("nproc", Jsonx.Int (Host.nproc ()));
              ("recommended_domain_count", Jsonx.Int (Domain.recommended_domain_count ()));
              ("ocaml", Jsonx.Str Sys.ocaml_version);
              ("calib_ms", Jsonx.List [ Jsonx.Float calib0; Jsonx.Float calib1 ]);
              ("ref_ms", Jsonx.Float ref_ms);
              ("ref_samples", Jsonx.Int (List.length !Host.ref_samples));
              ("scale", Jsonx.Float scale);
            ] );
        ("cycles", Jsonx.Int r.Runner.ncycles);
        ( "cycle_s",
          Jsonx.List
            (Array.to_list
               (Array.map
                  (fun seg -> Jsonx.Float (Spans.ms_of_ns (Array.fold_left ( + ) 0 seg) /. 1e3))
                  r.Runner.seg_ns)) );
        ("ops_per_cycle", Jsonx.Int ops_per_cycle);
        ("samples", Jsonx.Int attempted);
        ("setup_s", Jsonx.List (Array.to_list (Array.map (fun s -> Jsonx.Float s) setup_s)));
        ("unscaled", Jsonx.Obj (List.map (fun (n, v) -> (n, Jsonx.Float v)) raw));
        ( "placement",
          if trace then Jsonx.Null
          else Jsonx.List (List.map (Stat.placement ~classes:cls lat) [ 0.50; 0.90; 0.99 ]) );
        ("class_ms", if trace then Jsonx.Null else Stat.class_medians ~classes:cls lat);
      ]
  in
  print_endline (Jsonx.to_string info);
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("correct", Jsonx.Bool (failed = 0));
            ("attempted", Jsonx.Int attempted);
            ("failed", Jsonx.Int failed);
            ("metrics", Jsonx.Obj (List.map metric_json metrics));
          ]))
