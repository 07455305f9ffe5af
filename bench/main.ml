(* Benchmark harness: regenerates the paper's Tables 1-3 on the machine
   simulator, and runs Bechamel microbenchmarks of the compiler passes.

   Usage:
     bench/main.exe                  -- all three tables, scaled sizes
     bench/main.exe table1|table2|table3 [--full]
     bench/main.exe micro            -- bechamel compiler-pass benches
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
   longer matches the reference must not publish numbers. *)

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
  wall_ms : float;
  lower_ms : float;
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
  let wall0 = Unix.gettimeofday () in
  let c, trace =
    match Compiler.compile_traced (mk ~p) with
    | Ok res -> res
    | Error ds ->
        Fmt.epr "bench %s (P=%d): %a@." name p Hpf_lang.Diag.pp_list ds;
        exit 1
  in
  let lower_ms = Phpf_driver.Pipeline.pass_time_ms trace "lower-spmd" in
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
  let wall_ms = (Unix.gettimeofday () -. wall0) *. 1000.0 in
  {
    p;
    r;
    spmd;
    wall_ms;
    lower_ms;
    ir_ops;
    census;
    base_r;
    base_spmd;
    base_ir_ops;
  }

(* The mapping-aware recovery scenario (one crash pinned to the first
   heartbeat window of TOMCATV).  Measured leg: the SPMD executor at
   P=64 repairs the crash through the compile-time plan — localized
   failover only, zero full restores — and still validates bit-for-bit.
   Analytic leg: at P=1024 the trace simulator prices the fault-free run
   and {!Sir_recovery.estimate_failover} prices the worst-interval
   failover from the plan alone, all in well under a second. *)
type recovery_bench = {
  measured_p : int;
  report : Hpf_spmd.Recover.report;
  measured_wall_ms : float;
  analytic_p : int;
  analytic : Phpf_ir.Sir_recovery.estimate;
  simulated_time : float;
  analytic_wall_ms : float;
}

let recovery_bench () : recovery_bench =
  let open Phpf_core in
  let open Hpf_spmd in
  let measured_p = 64 and analytic_p = 1024 in
  let wall0 = Unix.gettimeofday () in
  let c = Compiler.compile_exn (Tomcatv.program ~n:66 ~niter:1 ~p:measured_p) in
  let faults = Fault.make ~seed:1 ~oneshots:[ (Fault.Crash, 0) ] [] in
  let st = Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~faults c in
  (match Spmd_interp.validate st with
  | [] -> ()
  | m :: _ ->
      Fmt.epr "bench recovery (P=%d): %a@." measured_p Spmd_interp.pp_mismatch
        m;
      exit 1);
  let report = Spmd_interp.fault_report st in
  if report.Recover.restores > 0 then begin
    Fmt.epr "bench recovery: crash fell back to a full restore@.";
    exit 1
  end;
  if report.Recover.plan_refetch + report.Recover.plan_reexec = 0 then begin
    Fmt.epr "bench recovery: plan never fired@.";
    exit 1
  end;
  let measured_wall_ms = (Unix.gettimeofday () -. wall0) *. 1000.0 in
  let wall1 = Unix.gettimeofday () in
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
  let analytic =
    Phpf_ir.Sir_recovery.estimate_failover
      ~heartbeat_timeout:Recover.default_config.Recover.heartbeat_timeout sir
      plan
  in
  let analytic_wall_ms = (Unix.gettimeofday () -. wall1) *. 1000.0 in
  {
    measured_p;
    report;
    measured_wall_ms;
    analytic_p;
    analytic;
    simulated_time = r.Trace_sim.time;
    analytic_wall_ms;
  }

(* The serve bench: replay >= 1000 generated requests (programs x
   option sets x actions) through the phpfc-serve engine on 1, 2 and 8
   domains — fresh engine and cache per leg.  The result digests of all
   legs must agree (the determinism gate: a mismatch is always fatal);
   the throughput ratio is reported honestly, and the >= 2x scaling
   expectation is enforced only where the host can physically deliver
   it (recommended_domain_count >= 2) and --check-serve asks for it. *)
module Srv = Phpf_serve.Serve

type serve_bench = {
  serve_requests : int;
  distinct_points : int;
  legs : (int * Srv.replay_summary) list;
  deterministic : bool;
  ratio_8_vs_1 : float;
  recommended_domains : int;
}

let serve_bench ~(requests : int) : serve_bench =
  let programs =
    List.map
      (fun (name, mk) -> (name, Hpf_lang.Pp.program_to_string (mk ~p:4)))
      json_benchmarks
  in
  let reqs = Srv.workload ~programs ~n:requests in
  let distinct_points =
    List.sort_uniq compare (List.map Phpf_serve.Engine.cache_key reqs)
    |> List.length
  in
  let legs = List.map (fun d -> (d, Srv.replay ~domains:d reqs)) [ 1; 2; 8 ] in
  List.iter
    (fun ((d, s) : int * Srv.replay_summary) ->
      if s.Srv.errors > 0 then begin
        Fmt.epr "bench serve: %d error response(s) at %d domain(s)@."
          s.Srv.errors d;
        exit 1
      end)
    legs;
  let digests =
    List.sort_uniq compare (List.map (fun (_, s) -> s.Srv.digest) legs)
  in
  let throughput d = (List.assoc d legs).Srv.throughput_rps in
  {
    serve_requests = requests;
    distinct_points;
    legs;
    deterministic = List.length digests = 1;
    ratio_8_vs_1 =
      (if throughput 1 > 0.0 then throughput 8 /. throughput 1 else 0.0);
    recommended_domains = Domain.recommended_domain_count ();
  }

let run_json args =
  let open Hpf_spmd in
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
  let recov = recovery_bench () in
  (* --no-serve skips the replay legs (the wall-clock-budgeted `scale`
     CI job); everything else runs them and enforces determinism. *)
  let srv =
    if List.mem "--no-serve" args then None
    else begin
      let s = serve_bench ~requests:1000 in
      if not s.deterministic then begin
        Fmt.epr
          "bench serve: NONDETERMINISM — replay digests differ across \
           domain counts@.";
        List.iter
          (fun (d, (l : Srv.replay_summary)) ->
            Fmt.epr "bench serve: domains=%d digest=%s@." d l.Srv.digest)
          s.legs;
        exit 1
      end;
      Some s
    end
  in
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "{\n";
  pf "  \"schema\": \"phpf-bench/6\",\n";
  pf "  \"procs\": [%s],\n"
    (String.concat ", " (List.map string_of_int procs));
  pf "  \"spmd_threshold\": %d,\n" spmd_threshold;
  pf "  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, points) ->
      let first = List.hd points in
      let ir_ops = first.ir_ops in
      let base = first.base_ir_ops in
      pf "    {\n";
      pf "      \"name\": %S,\n" name;
      pf "      \"ir_assigns\": %d,\n" ir_ops.Phpf_ir.Sir.assigns;
      pf "      \"ir_elem_xfers\": %d,\n" ir_ops.Phpf_ir.Sir.elem_xfers;
      pf "      \"ir_whole_xfers\": %d,\n" ir_ops.Phpf_ir.Sir.whole_xfers;
      pf "      \"ir_block_xfers\": %d,\n" ir_ops.Phpf_ir.Sir.block_xfers;
      pf "      \"ir_reduce_ops\": %d,\n" ir_ops.Phpf_ir.Sir.reduce_ops;
      pf "      \"ir_allocs\": %d,\n" ir_ops.Phpf_ir.Sir.alloc_ops;
      pf "      \"ir_elem_xfers_no_opt\": %d,\n" base.Phpf_ir.Sir.elem_xfers;
      pf "      \"ir_whole_xfers_no_opt\": %d,\n" base.Phpf_ir.Sir.whole_xfers;
      pf "      \"ir_block_xfers_no_opt\": %d,\n" base.Phpf_ir.Sir.block_xfers;
      pf "      \"ir_reduce_ops_no_opt\": %d,\n" base.Phpf_ir.Sir.reduce_ops;
      pf "      \"opt_census\": [\n";
      List.iteri
        (fun k (pass, stats) ->
          let get key =
            match List.assoc_opt key stats with Some v -> v | None -> 0
          in
          pf
            "        {\"pass\": %S, \"rewrites\": %d, \"delta_elem_xfers\": \
             %d, \"delta_whole_xfers\": %d, \"delta_block_xfers\": %d, \
             \"delta_reduce_ops\": %d}%s\n"
            pass (get "rewrites")
            (get "delta.elem-xfers")
            (get "delta.whole-xfers")
            (get "delta.block-xfers")
            (get "delta.reduce-ops")
            (if k = List.length first.census - 1 then "" else ","))
        first.census;
      pf "      ],\n";
      pf "      \"sweep\": [\n";
      List.iteri
        (fun j (pt : sweep_point) ->
          let r = pt.r in
          pf "        {\n";
          pf "          \"nprocs\": %d,\n" r.Trace_sim.nprocs;
          pf "          \"simulated_time\": %.6f,\n" r.Trace_sim.time;
          pf "          \"compute_max\": %.6f,\n" r.Trace_sim.compute_max;
          pf "          \"comm_time\": %.6f,\n" r.Trace_sim.comm_time;
          pf "          \"comm_messages\": %d,\n" r.Trace_sim.comm_messages;
          pf "          \"packets\": %d,\n" r.Trace_sim.packets;
          pf "          \"bytes\": %d,\n" r.Trace_sim.bytes;
          pf "          \"mem_elems_max\": %d,\n" r.Trace_sim.mem_elems_max;
          pf "          \"simulated_time_no_opt\": %.6f,\n"
            pt.base_r.Trace_sim.time;
          pf "          \"comm_messages_no_opt\": %d,\n"
            pt.base_r.Trace_sim.comm_messages;
          pf "          \"packets_no_opt\": %d,\n" pt.base_r.Trace_sim.packets;
          pf "          \"bytes_no_opt\": %d,\n" pt.base_r.Trace_sim.bytes;
          pf "          \"spmd_measured\": %b,\n" (pt.spmd <> None);
          (match pt.spmd with
          | Some ((agg : Msg.stats), (one : Msg.stats)) ->
              let ratio =
                if agg.Msg.packets = 0 then 1.0
                else
                  float_of_int one.Msg.packets
                  /. float_of_int agg.Msg.packets
              in
              pf "          \"elems\": %d,\n" agg.Msg.elems;
              pf "          \"blocks\": %d,\n" agg.Msg.blocks;
              pf "          \"spmd_packets\": %d,\n" agg.Msg.packets;
              pf "          \"spmd_bytes\": %d,\n" agg.Msg.bytes;
              pf "          \"packets_no_aggregate\": %d,\n" one.Msg.packets;
              pf "          \"bytes_no_aggregate\": %d,\n" one.Msg.bytes;
              pf "          \"packet_reduction\": %.2f,\n" ratio
          | None -> ());
          (match pt.base_spmd with
          | Some (bagg : Msg.stats) ->
              pf "          \"spmd_packets_no_opt\": %d,\n" bagg.Msg.packets;
              pf "          \"spmd_bytes_no_opt\": %d,\n" bagg.Msg.bytes
          | None -> ());
          pf "          \"lower_ms\": %.3f,\n" pt.lower_ms;
          pf "          \"wall_ms\": %.2f\n" pt.wall_ms;
          pf "        }%s\n" (if j = List.length points - 1 then "" else ",")
        )
        points;
      pf "      ]\n";
      pf "    }%s\n" (if i = List.length entries - 1 then "" else ",")
    )
    entries;
  pf "  ],\n";
  let rr = recov.report in
  let est = recov.analytic in
  pf "  \"recovery\": {\n";
  pf "    \"scenario\": \"tomcatv n=66, one crash at heartbeat window 0, plan regime\",\n";
  pf "    \"measured\": {\n";
  pf "      \"nprocs\": %d,\n" recov.measured_p;
  pf "      \"crashes\": %d,\n" rr.Recover.crashes;
  pf "      \"suspects\": %d,\n" rr.Recover.suspects;
  pf "      \"plan_refetch\": %d,\n" rr.Recover.plan_refetch;
  pf "      \"plan_reexec\": %d,\n" rr.Recover.plan_reexec;
  pf "      \"restores\": %d,\n" rr.Recover.restores;
  pf "      \"escalations\": %d,\n" rr.Recover.escalations;
  pf "      \"recovery_time\": %.6f,\n" rr.Recover.recovery_time;
  pf "      \"wall_ms\": %.2f\n" recov.measured_wall_ms;
  pf "    },\n";
  pf "    \"analytic\": {\n";
  pf "      \"nprocs\": %d,\n" recov.analytic_p;
  pf "      \"replica_refetches\": %d,\n"
    est.Phpf_ir.Sir_recovery.replica_refetches;
  pf "      \"region_replays\": %d,\n" est.Phpf_ir.Sir_recovery.region_replays;
  pf "      \"checkpoint_restores\": %d,\n"
    est.Phpf_ir.Sir_recovery.checkpoint_restores;
  pf "      \"detect_time\": %.6f,\n" est.Phpf_ir.Sir_recovery.detect_time;
  pf "      \"failover_time\": %.6f,\n"
    (Phpf_ir.Sir_recovery.total_time est);
  pf "      \"simulated_time\": %.6f,\n" recov.simulated_time;
  pf "      \"wall_ms\": %.2f\n" recov.analytic_wall_ms;
  pf "    }\n";
  pf "  },\n";
  (match srv with
  | None -> pf "  \"serve\": null\n"
  | Some srv ->
      pf "  \"serve\": {\n";
      pf "    \"requests\": %d,\n" srv.serve_requests;
      pf "    \"distinct_points\": %d,\n" srv.distinct_points;
      pf "    \"recommended_domains\": %d,\n" srv.recommended_domains;
      pf "    \"deterministic\": %b,\n" srv.deterministic;
      pf "    \"digest\": %S,\n" (snd (List.hd srv.legs)).Srv.digest;
      pf "    \"throughput_ratio_8_vs_1\": %.3f,\n" srv.ratio_8_vs_1;
      pf "    \"legs\": [\n";
      List.iteri
        (fun i (d, (s : Srv.replay_summary)) ->
          let c = s.Srv.cache in
          pf
            "      {\"domains\": %d, \"ok\": %d, \"errors\": %d, \
             \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"mean_ms\": %.3f, \
             \"wall_s\": %.3f, \"throughput_rps\": %.1f, \"cache_hits\": \
             %d, \"cache_misses\": %d, \"cache_hit_rate\": %.4f, \
             \"computed\": %d}%s\n"
            d s.Srv.ok s.Srv.errors s.Srv.p50_ms s.Srv.p99_ms s.Srv.mean_ms
            s.Srv.wall_s s.Srv.throughput_rps c.Phpf_driver.Memo.hits
            c.Phpf_driver.Memo.misses s.Srv.cache_hit_rate s.Srv.computed
            (if i = List.length srv.legs - 1 then "" else ","))
        srv.legs;
      pf "    ]\n";
      pf "  }\n");
  pf "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "wrote %s (%d benchmarks x %d procs)@." path (List.length entries)
    (List.length procs);
  (* the optimizer gate: the optimized schedule must never ship more
     than phpf's verbatim one — in the analytic pricing at every P, and
     in the measured SPMD traffic where it runs.  --check-opt makes a
     violation fatal (the CI `opt` job). *)
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
  if !violations > 0 then begin
    Fmt.epr "bench: %d optimizer regression(s)@." !violations;
    if List.mem "--check-opt" args then exit 1
  end
  else if List.mem "--check-opt" args then
    Fmt.pr "check-opt: optimized traffic <= --no-opt on every point@.";
  (* the serve gate: determinism is already fatal above; the >= 2x
     domain-scaling expectation only binds where the host has cores to
     scale onto — a 1-core container reports the honest ratio without
     failing. *)
  match (srv, List.mem "--check-serve" args) with
  | None, true ->
      Fmt.epr "bench: --check-serve is incompatible with --no-serve@.";
      exit 2
  | Some srv, true ->
      if srv.recommended_domains >= 2 && srv.ratio_8_vs_1 < 2.0 then begin
        Fmt.epr
          "bench serve: throughput ratio %.2f < 2.0 at 8 vs 1 domains on a \
           host with %d recommended domains@."
          srv.ratio_8_vs_1 srv.recommended_domains;
        exit 1
      end
      else
        Fmt.pr
          "check-serve: deterministic across 1/2/8 domains, throughput \
           ratio %.2f (host recommends %d domains)@."
          srv.ratio_8_vs_1 srv.recommended_domains
  | _, false -> ()

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
  | [ "micro" ] -> Micro.run ()
  | [ "ablation" ] -> Ablation.run ()
  | _ ->
      prerr_endline
        "usage: main.exe [table1|table2|table3|micro|ablation] [--full|--medium] [--procs=8,64,256,1024] [--json [--out=FILE] [--bench=NAME,..]]";
      exit 2
