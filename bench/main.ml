(* Benchmark harness: regenerates the paper's Tables 1-3 on the machine
   simulator, and writes the deterministic count record BENCH_phpf.json.

   Usage:
     bench/main.exe                  -- all three tables, scaled sizes
     bench/main.exe table1|table2|table3 [--full]
     bench/main.exe ablation         -- design-choice ablations
     bench/main.exe --json [--out=F] -- machine-readable benchmark run
                                        (writes BENCH_phpf.json)
*)

open Hpf_benchmarks

let size_of_args args =
  if List.mem "--full" args then `Full
  else if List.mem "--medium" args then `Medium
  else `Scaled

(* optional --procs=1,4,16 filter *)
let procs_of_args ~default args =
  List.fold_left
    (fun acc a ->
      match String.index_opt a '=' with
      | Some i when String.sub a 0 i = "--procs" ->
          String.sub a (i + 1) (String.length a - i - 1)
          |> String.split_on_char ','
          |> List.map int_of_string
      | _ -> acc)
    default args

let run_table1 args =
  let procs = procs_of_args ~default:[ 1; 2; 4; 8; 16 ] args in
  let t = Tables.table1 ~size:(size_of_args args) ~procs () in
  Fmt.pr "%a@." Tables.pp_table t;
  (match
     ( Tables.ratio t ~procs:16 ~worse:"Replication"
         ~better:"Selected Alignment",
       Tables.ratio t ~procs:16 ~worse:"Producer Alignment"
         ~better:"Selected Alignment",
       Tables.speedup t ~column:"Selected Alignment" ~from_procs:1
         ~to_procs:16 )
   with
  | Some r, Some rp, Some s ->
      Fmt.pr
        "  paper: selected alignment wins by >= 2 orders of magnitude at P=16; only it yields speedups@.";
      Fmt.pr
        "  measured: replication/selected = %.1fx, producer/selected = %.1fx, selected speedup P1->P16 = %.2fx@."
        r rp s
  | _ -> ());
  Fmt.pr "@."

let run_table2 args =
  let procs = procs_of_args ~default:[ 1; 2; 4; 8; 16 ] args in
  let t = Tables.table2 ~size:(size_of_args args) ~procs () in
  Fmt.pr "%a@." Tables.pp_table t;
  (match
     ( Tables.ratio t ~procs:16 ~worse:"Default" ~better:"Alignment",
       Tables.ratio t ~procs:2 ~worse:"Default" ~better:"Alignment" )
   with
  | Some r16, Some r2 ->
      Fmt.pr
        "  paper: replicated reduction scalar costs a roughly constant overhead, a growing fraction as P rises@.";
      Fmt.pr "  measured: default/alignment = %.2fx at P=2, %.2fx at P=16@."
        r2 r16
  | _ -> ());
  Fmt.pr "@."

let run_table3 args =
  let procs = procs_of_args ~default:[ 2; 4; 8; 16 ] args in
  let t = Tables.table3 ~size:(size_of_args args) ~procs () in
  Fmt.pr "%a@." Tables.pp_table t;
  (match
     ( Tables.ratio t ~procs:4 ~worse:"1-D, No Array Priv."
         ~better:"1-D, Priv.",
       Tables.ratio t ~procs:4 ~worse:"2-D, No Partial Priv."
         ~better:"2-D, Partial Priv." )
   with
  | Some r1, Some r2 ->
      Fmt.pr
        "  paper: without (partial) privatization both distributions are far slower (1-D aborted after a day)@.";
      Fmt.pr
        "  measured at P=4: no-priv/priv = %.1fx (1-D), no-partial/partial = %.1fx (2-D)@."
        r1 r2
  | _ -> ());
  Fmt.pr "@."

(* --json: per benchmark, a processor-count sweep.  At every P the
   trace simulator prices the program (closed-form ownership keeps this
   cheap even at P=1024); at small P the full SPMD interpreter also runs
   in both aggregation modes and validates against the sequential
   reference — validation failures are hard errors, a benchmark that no
   longer matches the reference must not publish numbers.  The record
   holds counts and simulated times only, so it is a pure function of
   the code and CI diffs it against the committed BENCH_phpf.json;
   wall-clock timing is perfbench's job (BENCHMARK.json). *)

module J = Phpf_serve.Jsonx

let json_benchmarks =
  [
    ("fig1", fun ~p -> Fig_examples.fig1 ~n:64 ~p ());
    ("fig2", fun ~p -> Fig_examples.fig2 ~n:32 ~np:p ());
    ("fig7", fun ~p -> Fig_examples.fig7 ~n:48 ~p ());
    ("tomcatv", fun ~p -> Tomcatv.program ~n:66 ~niter:1 ~p);
    ("dgefa", fun ~p -> Dgefa.program ~n:64 ~p);
    ( "appsp_2d",
      fun ~p ->
        match Hpf_mapping.Grid.factorize ~rank:2 p with
        | [ p1; p2 ] -> Appsp.program_2d ~n:18 ~niter:1 ~p1 ~p2
        | _ -> assert false );
  ]

(* optional --bench=fig1,tomcatv filter *)
let bench_of_args args =
  List.fold_left
    (fun acc a ->
      match String.index_opt a '=' with
      | Some i when String.sub a 0 i = "--bench" ->
          Some
            (String.sub a (i + 1) (String.length a - i - 1)
            |> String.split_on_char ',')
      | _ -> acc)
    None args

let out_of_args ~default args =
  List.fold_left
    (fun acc a ->
      match String.index_opt a '=' with
      | Some i when String.sub a 0 i = "--out" ->
          String.sub a (i + 1) (String.length a - i - 1)
      | _ -> acc)
    default args

(* One sweep point: compile at P (optimizer on, the default), trace-
   simulate always; below the SPMD threshold also execute the full
   per-processor interpreter in both aggregation modes and validate
   against the sequential reference.  The same program is additionally
   compiled with the optimizer off (--no-opt, phpf's verbatim schedule)
   and priced/measured identically — the A/B leg behind the packet and
   byte win columns.  Both legs validating against the same sequential
   reference is the differential test: optimized and legacy schedules
   must compute bit-identical results. *)
type sweep_point = {
  p : int;
  r : Hpf_spmd.Trace_sim.result;
  spmd : (Hpf_spmd.Msg.stats * Hpf_spmd.Msg.stats) option;
      (** (aggregated, per-element) measured traffic, optimized *)
  ir_ops : Phpf_ir.Sir.op_counts;
  census : (string * (string * int) list) list;
      (** per sir-opt pass: its recorded counters (rewrites, deltas) *)
  base_r : Hpf_spmd.Trace_sim.result;  (** --no-opt trace-sim *)
  base_spmd : Hpf_spmd.Msg.stats option;
      (** --no-opt aggregated measured traffic *)
  base_ir_ops : Phpf_ir.Sir.op_counts;
}

(* SPMD execution materializes P shadow memories and O(P) mirror writes
   per statement instance: measured (and validated) only up to here. *)
let spmd_threshold = 8

let validated_run (name : string) (p : int) ~(tag : string) ~aggregate
    (c : Phpf_core.Compiler.compiled) : Hpf_spmd.Msg.stats =
  let open Phpf_core in
  let open Hpf_spmd in
  let st = Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~aggregate c in
  (match Spmd_interp.validate st with
  | [] -> ()
  | m :: _ ->
      Fmt.epr "bench %s P=%d (%s, aggregate=%b): %a@." name p tag aggregate
        Spmd_interp.pp_mismatch m;
      exit 1);
  Spmd_interp.comm_stats st

let sweep_point (name : string) (mk : p:int -> Hpf_lang.Ast.program)
    (p : int) : sweep_point =
  let open Phpf_core in
  let open Hpf_spmd in
  let c, trace =
    match Compiler.compile_traced (mk ~p) with
    | Ok res -> res
    | Error ds ->
        Fmt.epr "bench %s (P=%d): %a@." name p Hpf_lang.Diag.pp_list ds;
        exit 1
  in
  let ir_ops = Phpf_ir.Sir.op_counts (Compiler.sir_exn c) in
  let census =
    List.filter_map
      (fun pass ->
        let pass = "sir-opt." ^ pass in
        Option.map
          (fun stats -> (pass, stats))
          (Phpf_driver.Pipeline.stats_of trace pass))
      Phpf_ir.Sir_opt.pass_names
  in
  (* the --no-opt leg: phpf's verbatim schedule *)
  let base_options =
    { Decisions.default_options with Decisions.optimize = false }
  in
  let cb = Compiler.compile_exn ~options:base_options (mk ~p) in
  let base_ir_ops = Phpf_ir.Sir.op_counts (Compiler.sir_exn cb) in
  let spmd, base_spmd =
    if p > spmd_threshold then (None, None)
    else
      ( Some
          ( validated_run name p ~tag:"opt" ~aggregate:true c,
            validated_run name p ~tag:"opt" ~aggregate:false c ),
        Some (validated_run name p ~tag:"no-opt" ~aggregate:true cb) )
  in
  let r, _ =
    Trace_sim.run
      ~init:(Init.init c.Compiler.prog)
      ?comm_stats:(Option.map fst spmd) c
  in
  let base_r, _ =
    Trace_sim.run
      ~init:(Init.init cb.Compiler.prog)
      ?comm_stats:base_spmd cb
  in
  { p; r; spmd; ir_ops; census; base_r; base_spmd; base_ir_ops }

let point_json (pt : sweep_point) : J.t =
  let open Hpf_spmd in
  let r = pt.r and base = pt.base_r in
  let measured =
    match pt.spmd with
    | None -> []
    | Some (agg, one) ->
        let reduction =
          if agg.Msg.packets = 0 then 1.0
          else float_of_int one.Msg.packets /. float_of_int agg.Msg.packets
        in
        [
          ("elems", J.Int agg.Msg.elems);
          ("blocks", J.Int agg.Msg.blocks);
          ("spmd_packets", J.Int agg.Msg.packets);
          ("spmd_bytes", J.Int agg.Msg.bytes);
          ("packets_no_aggregate", J.Int one.Msg.packets);
          ("bytes_no_aggregate", J.Int one.Msg.bytes);
          ("packet_reduction", J.Float reduction);
        ]
  in
  let base_measured =
    match pt.base_spmd with
    | None -> []
    | Some bagg ->
        [
          ("spmd_packets_no_opt", J.Int bagg.Msg.packets);
          ("spmd_bytes_no_opt", J.Int bagg.Msg.bytes);
        ]
  in
  J.Obj
    ([
       ("nprocs", J.Int r.Trace_sim.nprocs);
       ("simulated_time", J.Float r.Trace_sim.time);
       ("compute_max", J.Float r.Trace_sim.compute_max);
       ("comm_time", J.Float r.Trace_sim.comm_time);
       ("comm_messages", J.Int r.Trace_sim.comm_messages);
       ("packets", J.Int r.Trace_sim.packets);
       ("bytes", J.Int r.Trace_sim.bytes);
       ("mem_elems_max", J.Int r.Trace_sim.mem_elems_max);
       ("simulated_time_no_opt", J.Float base.Trace_sim.time);
       ("comm_messages_no_opt", J.Int base.Trace_sim.comm_messages);
       ("packets_no_opt", J.Int base.Trace_sim.packets);
       ("bytes_no_opt", J.Int base.Trace_sim.bytes);
       ("spmd_measured", J.Bool (pt.spmd <> None));
     ]
    @ measured @ base_measured)

(* One IR op census and optimizer census per benchmark, taken at the
   first sweep point. *)
let benchmark_json ((name, points) : string * sweep_point list) : J.t =
  let first = List.hd points in
  let ops = first.ir_ops and base = first.base_ir_ops in
  let census_entry (pass, stats) =
    let get key =
      J.Int (Option.value ~default:0 (List.assoc_opt key stats))
    in
    J.Obj
      [
        ("pass", J.Str pass);
        ("rewrites", get "rewrites");
        ("delta_elem_xfers", get "delta.elem-xfers");
        ("delta_whole_xfers", get "delta.whole-xfers");
        ("delta_block_xfers", get "delta.block-xfers");
        ("delta_reduce_ops", get "delta.reduce-ops");
      ]
  in
  J.Obj
    [
      ("name", J.Str name);
      ("ir_assigns", J.Int ops.Phpf_ir.Sir.assigns);
      ("ir_elem_xfers", J.Int ops.elem_xfers);
      ("ir_whole_xfers", J.Int ops.whole_xfers);
      ("ir_block_xfers", J.Int ops.block_xfers);
      ("ir_reduce_ops", J.Int ops.reduce_ops);
      ("ir_allocs", J.Int ops.alloc_ops);
      ("ir_elem_xfers_no_opt", J.Int base.Phpf_ir.Sir.elem_xfers);
      ("ir_whole_xfers_no_opt", J.Int base.whole_xfers);
      ("ir_block_xfers_no_opt", J.Int base.block_xfers);
      ("ir_reduce_ops_no_opt", J.Int base.reduce_ops);
      ("opt_census", J.List (List.map census_entry first.census));
      ("sweep", J.List (List.map point_json points));
    ]

(* The mapping-aware recovery scenario (one crash pinned to the first
   heartbeat window of TOMCATV).  Measured leg: the SPMD executor at
   P=64 repairs the crash through the compile-time plan — localized
   failover only, zero full restores — and still validates bit-for-bit.
   Analytic leg: at P=1024 the trace simulator prices the fault-free run
   and {!Sir_recovery.estimate_failover} prices the worst-interval
   failover from the plan alone. *)
let recovery_json () : J.t =
  let open Phpf_core in
  let open Hpf_spmd in
  let measured_p = 64 and analytic_p = 1024 in
  let c = Compiler.compile_exn (Tomcatv.program ~n:66 ~niter:1 ~p:measured_p) in
  let faults = Fault.make ~seed:1 ~oneshots:[ (Fault.Crash, 0) ] [] in
  let st = Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~faults c in
  (match Spmd_interp.validate st with
  | [] -> ()
  | m :: _ ->
      Fmt.epr "bench recovery (P=%d): %a@." measured_p Spmd_interp.pp_mismatch
        m;
      exit 1);
  let rr = Spmd_interp.fault_report st in
  if rr.Recover.restores > 0 then begin
    Fmt.epr "bench recovery: crash fell back to a full restore@.";
    exit 1
  end;
  if rr.Recover.plan_refetch + rr.Recover.plan_reexec = 0 then begin
    Fmt.epr "bench recovery: plan never fired@.";
    exit 1
  end;
  let c2 =
    Compiler.compile_exn (Tomcatv.program ~n:66 ~niter:1 ~p:analytic_p)
  in
  let r, _ = Trace_sim.run ~init:(Init.init c2.Compiler.prog) c2 in
  let sir = Compiler.sir_exn c2 in
  let plan =
    match sir.Phpf_ir.Sir.recovery with
    | Some plan -> plan
    | None ->
        Fmt.epr "bench recovery: no recovery plan recorded@.";
        exit 1
  in
  let est =
    Phpf_ir.Sir_recovery.estimate_failover
      ~heartbeat_timeout:Recover.default_config.Recover.heartbeat_timeout sir
      plan
  in
  J.Obj
    [
      ( "scenario",
        J.Str "tomcatv n=66, one crash at heartbeat window 0, plan regime" );
      ( "measured",
        J.Obj
          [
            ("nprocs", J.Int measured_p);
            ("crashes", J.Int rr.Recover.crashes);
            ("suspects", J.Int rr.Recover.suspects);
            ("plan_refetch", J.Int rr.Recover.plan_refetch);
            ("plan_reexec", J.Int rr.Recover.plan_reexec);
            ("restores", J.Int rr.Recover.restores);
            ("escalations", J.Int rr.Recover.escalations);
            ("recovery_time", J.Float rr.Recover.recovery_time);
          ] );
      ( "analytic",
        J.Obj
          [
            ("nprocs", J.Int analytic_p);
            ( "replica_refetches",
              J.Int est.Phpf_ir.Sir_recovery.replica_refetches );
            ("region_replays", J.Int est.region_replays);
            ("checkpoint_restores", J.Int est.checkpoint_restores);
            ("detect_time", J.Float est.detect_time);
            ("failover_time", J.Float (Phpf_ir.Sir_recovery.total_time est));
            ("simulated_time", J.Float r.Trace_sim.time);
          ] );
    ]

(* The serve replay: >= 1000 generated requests (programs x option sets
   x actions) through the phpfc-serve engine on one domain, fresh engine
   and cache.  Any error response is fatal; the digest pins every
   response body.  Determinism across domain counts is tested by
   test_serve and the CI serve job, serve throughput by perfbench. *)
let serve_json ~(requests : int) : J.t =
  let module Srv = Phpf_serve.Serve in
  let programs =
    List.map
      (fun (name, mk) -> (name, Hpf_lang.Pp.program_to_string (mk ~p:4)))
      json_benchmarks
  in
  let reqs = Srv.workload ~programs ~n:requests in
  let distinct_points =
    List.length
      (List.sort_uniq compare (List.map Phpf_serve.Engine.cache_key reqs))
  in
  let s = Srv.replay ~domains:1 reqs in
  if s.Srv.errors > 0 then begin
    Fmt.epr "bench serve: %d error response(s)@." s.Srv.errors;
    exit 1
  end;
  J.Obj
    [
      ("requests", J.Int requests);
      ("distinct_points", J.Int distinct_points);
      ("computed", J.Int s.Srv.computed);
      ("digest", J.Str s.Srv.digest);
    ]

(* The optimizer gate: the optimized schedule must never ship more than
   phpf's verbatim one — in the analytic pricing at every P, and in the
   measured SPMD traffic where it runs.  Returns the violation count. *)
let opt_regressions (entries : (string * sweep_point list) list) : int =
  let open Hpf_spmd in
  let violations = ref 0 in
  List.iter
    (fun (name, points) ->
      List.iter
        (fun (pt : sweep_point) ->
          let bad fmt =
            Fmt.kstr
              (fun msg ->
                incr violations;
                Fmt.epr "bench: OPT REGRESSION %s P=%d: %s@." name pt.p msg)
              fmt
          in
          if pt.r.Trace_sim.packets > pt.base_r.Trace_sim.packets then
            bad "priced packets %d > %d (--no-opt)" pt.r.Trace_sim.packets
              pt.base_r.Trace_sim.packets;
          if pt.r.Trace_sim.bytes > pt.base_r.Trace_sim.bytes then
            bad "priced bytes %d > %d (--no-opt)" pt.r.Trace_sim.bytes
              pt.base_r.Trace_sim.bytes;
          match (pt.spmd, pt.base_spmd) with
          | Some ((agg, _) : Msg.stats * Msg.stats), Some bagg ->
              if agg.Msg.packets > bagg.Msg.packets then
                bad "measured packets %d > %d (--no-opt)" agg.Msg.packets
                  bagg.Msg.packets;
              if agg.Msg.bytes > bagg.Msg.bytes then
                bad "measured bytes %d > %d (--no-opt)" agg.Msg.bytes
                  bagg.Msg.bytes
          | _ -> ())
        points)
    entries;
  !violations

let run_json args =
  let path = out_of_args ~default:"BENCH_phpf.json" args in
  let procs = procs_of_args ~default:[ 8; 64; 256; 1024 ] args in
  let selected =
    match bench_of_args args with
    | None -> json_benchmarks
    | Some names ->
        List.filter (fun (n, _) -> List.mem n names) json_benchmarks
  in
  if selected = [] then begin
    Fmt.epr "bench: --bench matched no benchmark@.";
    exit 2
  end;
  let entries =
    List.map
      (fun (name, mk) -> (name, List.map (sweep_point name mk) procs))
      selected
  in
  let record =
    J.Obj
      [
        ("schema", J.Str "phpf-bench/7");
        ("procs", J.List (List.map (fun p -> J.Int p) procs));
        ("spmd_threshold", J.Int spmd_threshold);
        ("benchmarks", J.List (List.map benchmark_json entries));
        ("recovery", recovery_json ());
        (* --no-serve skips the replay (the wall-clock-budgeted `scale`
           CI job) *)
        ( "serve",
          if List.mem "--no-serve" args then J.Null
          else serve_json ~requests:1000 );
      ]
  in
  let oc = open_out path in
  output_string oc (J.pretty record);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s (%d benchmarks x %d procs)@." path (List.length entries)
    (List.length procs);
  let violations = opt_regressions entries in
  if violations > 0 then begin
    Fmt.epr "bench: %d optimizer regression(s)@." violations;
    exit 1
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--json" args then run_json args
  else
  let which =
    List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
  in
  match which with
  | [] ->
      run_table1 args;
      run_table2 args;
      run_table3 args
  | [ "table1" ] -> run_table1 args
  | [ "table2" ] -> run_table2 args
  | [ "table3" ] -> run_table3 args
  | [ "ablation" ] -> Ablation.run ()
  | _ ->
      prerr_endline
        "usage: main.exe [table1|table2|table3|ablation] [--full|--medium] [--procs=8,64,256,1024] [--json [--out=FILE] [--bench=NAME,..] [--no-serve]]";
      exit 2
