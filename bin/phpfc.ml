(* phpfc — compile kernel-language (HPF subset) programs, report the
   privatization mapping decisions and communication schedule, and run
   them on the SP2-like machine simulator.

   Exit codes: 0 success, 1 usage error, 2 compile error, 3 runtime
   failure (validation mismatch, interpreter runtime error, or an
   unrecoverable / silently-diverging fault-injection run), 4 lint
   failure (the static verifier found soundness errors).  All failures
   are rendered through the single structured diagnostic renderer
   (Diag.pp) — no command throws. *)

open Cmdliner
open Hpf_lang
open Phpf_core
open Hpf_spmd

let exit_ok = 0
let exit_usage = 1
let exit_compile_error = 2
let exit_mismatch = 3
let exit_lint = 4

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

(* The one diagnostic-rendering path shared by every command. *)
let render_diags (ds : Diag.t list) = Fmt.epr "%a@?" Diag.pp_list ds

(* A usage error: one diagnostic under [code], exit 1. *)
let usage_error ~code fmt =
  Fmt.kstr
    (fun msg ->
      render_diags [ Diag.error ~code msg ];
      exit_usage)
    fmt

(* Run a command body; structured diagnostics from any phase (lexer,
   parser, sema, layout, pipeline) land here and nowhere else.  Runtime
   failures, mapped to diagnostics as serve maps them, are rendered the
   same way but exit like a validation mismatch; an exhausted budget
   names [fuel_flag] where the command has one. *)
let guarded ?fuel_flag (f : unit -> int) : int =
  try f () with
  | Diag.Fatal ds ->
      render_diags ds;
      exit_compile_error
  | exn -> (
      match Spmd_interp.runtime_diags ?fuel_flag exn with
      | Some ds ->
          render_diags ds;
          exit_mismatch
      | None -> raise exn)

(* Run the static verifier over a compiled program: findings on stderr
   (the shared renderer), the one-line summary on stdout, instrumentation
   like the compiler's own passes.  Returns the exit code. *)
let run_verifier ~opts ~time_passes ~stats ~strict ?dump_after
    (c : Compiler.compiled) : int =
  (* the verifier's own --dump-after hook: verify-flow renders the
     per-block dataflow states, every other pass its findings so far *)
  let after name (v : Phpf_verify.Verifier.vctx) =
    if dump_after = Some name then begin
      Fmt.pr "=== after %s ===@." name;
      (if name = "verify-flow" then
         match Phpf_verify.Sir_flow.dump v.Phpf_verify.Verifier.compiled with
         | Some s -> Fmt.pr "%s" s
         | None -> Fmt.pr "no lowered program recorded@."
       else Fmt.pr "%a@." Diag.pp_list v.Phpf_verify.Verifier.findings);
      Fmt.pr "=== end %s ===@." name
    end
  in
  match Phpf_verify.Verifier.verify ~opts ~after c with
  | Error ds -> raise (Diag.Fatal ds)
  | Ok (findings, vtrace) ->
      render_diags findings;
      Fmt.pr "%a@." Phpf_verify.Verifier.pp_summary findings;
      if time_passes then
        Fmt.pr "%a@?" Phpf_driver.Pipeline.pp_timing vtrace;
      if stats then Fmt.pr "%a@?" Phpf_driver.Pipeline.pp_stats vtrace;
      if
        Phpf_verify.Verifier.has_errors findings
        || (strict && findings <> [])
      then exit_lint
      else exit_ok

(* ---------------- common options ---------------- *)

let file_arg =
  Arg.(
    required
    & pos 0 (some non_dir_file) None
    & info [] ~docv:"FILE" ~doc:"Kernel-language source file (.hpfk).")

let procs_arg =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "procs"; "p" ] ~docv:"P1,P2,..."
        ~doc:
          "Override the processor grid extents declared by the program's \
           PROCESSORS directive.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Debug logging.")

let topology_arg =
  let topo_conv =
    Arg.conv
      ( (fun s ->
          Result.map_error
            (fun e -> `Msg e)
            (Hpf_comm.Cost_model.topology_of_string s)),
        Hpf_comm.Cost_model.pp_topology )
  in
  Arg.(
    value
    & opt topo_conv Hpf_comm.Cost_model.Flat
    & info [ "topology" ] ~docv:"TOPO"
        ~doc:
          "Interconnect topology priced by the cost model: $(b,flat) \
           (single-hop, full bisection — the legacy SP2 model), \
           $(b,fat-tree)[:$(i,RADIX)] (per-hop latency up and down the \
           tree) or $(b,torus) (2D torus: Manhattan hop distances and \
           bisection contention on congesting collectives).")

(* Every compiler flag flips one knob of the table in [Decisions]. *)
let opt_flags =
  let knob acc (k : Decisions.knob) =
    let flip flipped o =
      if flipped then
        k.Decisions.set o (not (k.Decisions.get Decisions.default_options))
      else o
    in
    let flag =
      Arg.(value & flag & info [ k.Decisions.flag ] ~doc:k.Decisions.doc)
    in
    Term.(const flip $ flag $ acc)
  in
  List.fold_left knob (Term.const Decisions.default_options) Decisions.knobs

(* ---------------- pipeline instrumentation flags ---------------- *)

let time_passes_arg =
  Arg.(
    value & flag
    & info [ "time-passes" ]
        ~doc:"Print a per-pass wall-time table after compilation.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print the statistics counters recorded by each pass.")

let no_aggregate_arg =
  Arg.(
    value & flag
    & info [ "no-aggregate" ]
        ~doc:
          "Ship every element of a block transfer as its own packet \
           instead of one block per (src, dst) pair — the same program \
           under a per-element transport, for A/B comparisons against \
           the aggregated runtime.")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Statement-instance budget for the interpreter runs; \
           exhausting it is a located E0704 runtime failure (exit 3).")

let report_comm_arg =
  Arg.(
    value & flag
    & info [ "report-comm" ]
        ~doc:
          "Run the SPMD message runtime and report its measured network \
           traffic (packets, blocks, elements, wire bytes); the measured \
           counters also replace the schedule estimates behind \
           sim.packets/sim.bytes.")

let dump_after_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-after" ] ~docv:"PASS"
        ~doc:
          "Dump the program and the mapping decisions after the named \
           pass (see $(b,--list-passes) for names).")

let list_passes_arg =
  Arg.(
    value & flag
    & info [ "list-passes" ]
        ~doc:"List the registered passes of the pipeline and exit.")

let list_passes () =
  List.iter
    (fun p ->
      Fmt.pr "%-16s %s@."
        (Phpf_driver.Pass.name p)
        (Phpf_driver.Pass.descr p))
    Compiler.passes

(* The --dump-after hook: after the named pass, print the (possibly
   rewritten) program and whatever decisions exist at that point; after
   lower-spmd and each sir-opt pass, print the lowered SPMD IR itself. *)
let dump_after_hook (which : string option) (name : string)
    (ctx : Compiler.context) : unit =
  if which = Some name then
    match (name, ctx.Compiler.sir) with
    | n, Some sir
      when n = "lower-spmd" || String.starts_with ~prefix:"sir-opt." n ->
        Fmt.pr "=== after %s ===@." name;
        Fmt.pr "%a" Phpf_ir.Sir_pp.pp sir;
        Fmt.pr "=== end %s ===@." name
    | "recovery-plan", Some sir ->
        Fmt.pr "=== after %s ===@." name;
        Fmt.pr "%a" Phpf_ir.Sir_pp.pp_plan sir;
        Fmt.pr "=== end %s ===@." name
    | _ ->
  begin
    Fmt.pr "=== after %s ===@." name;
    Fmt.pr "%s" (Pp.program_to_string ctx.Compiler.prog);
    (match ctx.Compiler.decisions with
    | Some d ->
        Fmt.pr "scalar mappings:@.";
        Report.pp_scalar_decisions Fmt.stdout d;
        if Decisions.array_count d > 0 then begin
          Fmt.pr "array privatization:@.";
          Report.pp_array_decisions Fmt.stdout d
        end;
        if Decisions.ctrl_count d > 0 then begin
          Fmt.pr "control flow:@.";
          Report.pp_ctrl_decisions Fmt.stdout d
        end
    | None -> ());
    Fmt.pr "=== end %s ===@." name
  end

(* The arguments every compiling subcommand shares. *)
type common = {
  file : string;
  procs : int list option;  (** grid override *)
  options : Decisions.options;
  verbose : bool;
}

let common_term ?(procs = procs_arg) () : common Term.t =
  Term.(
    const (fun file procs options verbose -> { file; procs; options; verbose })
    $ file_arg $ procs $ opt_flags $ verbose_arg)

(* Parse + compile through the pass manager, returning the pipeline
   trace alongside the result. *)
let compile_program ?after (co : common) =
  let prog = Parser.parse_file co.file in
  match
    Compiler.compile_traced ?grid_override:co.procs ~options:co.options
      ?after prog
  with
  | Ok res -> res
  | Error ds -> raise (Diag.Fatal ds)

(* Run a compiling command: set up logging and, before doing any work,
   reject as E0501 usage errors (exit 1) an unknown --dump-after pass
   ([extra] admits the verifier's passes where they run) and a
   --dump-after pass the options switch off (it would dump nothing).
   [f] runs under the shared diagnostic guard. *)
let run_compiling ?(extra = []) ?fuel_flag ?dump_after (co : common)
    (f : unit -> int) : int =
  setup_logs co.verbose;
  let usage fmt = usage_error ~code:"E0501" fmt in
  let pipeline = Compiler.pass_names @ extra in
  let switched_off p =
    List.exists
      Phpf_driver.Pass.(fun q -> q.name = p && not (q.enabled co.options))
      Compiler.passes
  in
  match dump_after with
  | Some p when not (List.mem p pipeline) ->
      usage "unknown pass %s (registered: %s)" p (String.concat ", " pipeline)
  | Some p when switched_off p ->
      usage "pass %s does not run under these options (nothing to dump)" p
  | _ -> guarded ?fuel_flag f

(* ---------------- commands ---------------- *)

let compile_cmd =
  let run co annotate verify time_passes stats dump_after list_passes_flag =
    if list_passes_flag then begin
      setup_logs co.verbose;
      list_passes ();
      exit_ok
    end
    else
      run_compiling
        ~extra:(if verify then Phpf_verify.Verifier.pass_names else [])
        ?dump_after co
      @@ fun () ->
      let c, trace = compile_program ~after:(dump_after_hook dump_after) co in
      if annotate then Fmt.pr "%a@?" Report.pp_annotated c
      else Fmt.pr "%a@?" Report.pp_compiled c;
      if time_passes then
        Fmt.pr "%a@?" Phpf_driver.Pipeline.pp_timing trace;
      if stats then Fmt.pr "%a@?" Phpf_driver.Pipeline.pp_stats trace;
      if verify then
        run_verifier ~opts:co.options ~time_passes ~stats ~strict:false
          ?dump_after c
      else exit_ok
  in
  let annotate_arg =
    Arg.(
      value & flag
      & info [ "annotate" ]
          ~doc:
            "Print the program source annotated with each statement's \
             guard and communications instead of the summary report.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Run the static verifier over the compiled output (the \
             $(b,lint) checkers) after the report; exit 4 on soundness \
             errors.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile and report mapping decisions.")
    Term.(
      const run $ common_term () $ annotate_arg $ verify_arg $ time_passes_arg
      $ stats_arg $ dump_after_arg $ list_passes_arg)

let lint_cmd =
  let run co strict time_passes stats dump_after =
    run_compiling ~extra:Phpf_verify.Verifier.pass_names ?dump_after co
    @@ fun () ->
    let c, _trace = compile_program co in
    run_verifier ~opts:co.options ~time_passes ~stats ~strict ?dump_after c
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Fail (exit 4) on warnings too, not only on \
                                soundness errors.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify the compiled output: mapping validity \
          (E0601-E0613), SPMD races, communication completeness, \
          lowered-IR fidelity and dataflow (dead/redundant transfers, \
          stale reads).  Exits 0 when clean, 4 on findings.  \
          $(b,--dump-after) verify-flow renders the per-block dataflow \
          states.")
    Term.(
      const run $ common_term () $ strict_arg $ time_passes_arg $ stats_arg
      $ dump_after_arg)

(* The numeric runtime flags outside their range, one message each,
   naming the flag and the range it must lie in. *)
let runtime_flag_errors ~fuel ~max_retries ~checkpoint_interval
    ~heartbeat_timeout : string list =
  List.filter_map Fun.id
    [
      (match fuel with
      | Some n when n < 0 -> Some (Fmt.str "--fuel %d: must be >= 0" n)
      | _ -> None);
      (if max_retries < 0 then
         Some (Fmt.str "--max-retries %d: must be >= 0" max_retries)
       else None);
      (if checkpoint_interval < 1 then
         Some
           (Fmt.str "--checkpoint-interval %d: must be >= 1"
              checkpoint_interval)
       else None);
      (match heartbeat_timeout with
      | Some t when not (Float.is_finite t && t > 0.0) ->
          Some
            (Fmt.str "--heartbeat-timeout %g: must be finite and positive" t)
      | _ -> None);
    ]

let simulate_cmd =
  let run co stats faults fault_seed report_faults report_comm recovery_mode
      max_retries checkpoint_interval heartbeat_timeout no_aggregate fuel
      topology dump_after =
    run_compiling ~fuel_flag:"--fuel" ?dump_after co @@ fun () ->
    let model =
      Hpf_comm.Cost_model.with_topology Hpf_comm.Cost_model.sp2 topology
    in
    let recover_config =
      {
        Recover.default_config with
        Recover.mode = recovery_mode;
        max_retries;
        checkpoint_interval;
        heartbeat_timeout =
          Option.value heartbeat_timeout
            ~default:Recover.default_config.Recover.heartbeat_timeout;
        model;
      }
    in
    match
      match
        runtime_flag_errors ~fuel ~max_retries ~checkpoint_interval
          ~heartbeat_timeout
      with
      | _ :: _ as flags ->
          Error (List.map (( ^ ) "invalid runtime flag ") flags)
      | [] -> (
          match faults with
          | None -> Ok Fault.none
          | Some spec -> (
              match Fault.parse_spec spec with
              | Ok (spec, oneshots) ->
                  Ok (Fault.make ~seed:fault_seed ~oneshots spec)
              | Error m -> Error [ "invalid fault spec: " ^ m ]))
    with
    | Error msgs ->
        render_diags (List.map (Diag.error ~code:"E0702") msgs);
        exit_usage
    | Ok schedule -> (
        let c, _trace =
          compile_program ~after:(dump_after_hook dump_after) co
        in
        let sim_stats =
          if stats then Some (Phpf_driver.Stats.create ()) else None
        in
        let init = Init.init c.Compiler.prog in
        (* under fault injection (and for --report-comm's measured
           traffic), the SPMD interpreter runs first: either it recovers
           (validation clean, recovery priced into the simulation) or
           the run terminates with a structured failure — silent
           divergence is itself a failure *)
        let spmd_run =
          if (not (Fault.active schedule)) && not report_comm then `Skipped
          else begin
            let st =
              Spmd_interp.run ~init ~faults:schedule ~recover_config ?fuel
                ~aggregate:(not no_aggregate) c
            in
            match Spmd_interp.validate st with
            | [] -> `Ran st
            | ms -> `Diverged ms
          end
        in
        match spmd_run with
        | `Diverged ms ->
            List.iter
              (fun m -> Fmt.epr "MISMATCH %a@." Spmd_interp.pp_mismatch m)
              ms;
            render_diags
              [
                (if Fault.active schedule then
                   Diag.errorf ~code:"E0703"
                     "silent divergence under fault injection: %d owned \
                      element(s) differ from the sequential reference"
                     (List.length ms)
                 else
                   Diag.errorf ~code:"E0703"
                     "SPMD execution diverges from the sequential \
                      reference: %d owned element(s) differ"
                     (List.length ms));
              ];
            exit_mismatch
        | (`Skipped | `Ran _) as ok ->
            let recovery =
              match ok with
              | `Ran st when Fault.active schedule ->
                  Some (Spmd_interp.fault_report st)
              | _ -> None
            in
            let comm_stats =
              match ok with
              | `Ran st -> Some (Spmd_interp.comm_stats st)
              | `Skipped -> None
            in
            let result, _mem =
              Trace_sim.run ~model ?stats:sim_stats ?recovery ?comm_stats
                ?fuel ~init c
            in
            Fmt.pr "%a@." Trace_sim.pp_result result;
            (match comm_stats with
            | Some ms when report_comm ->
                Fmt.pr "comm: %a@." Msg.pp_stats ms
            | _ -> ());
            (match recovery with
            | Some rep when report_faults ->
                Fmt.pr "%a@?" Recover.pp_report rep
            | _ -> ());
            (match sim_stats with
            | Some st -> Fmt.pr "%a@?" Phpf_driver.Stats.pp st
            | None -> ());
            exit_ok)
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Inject a deterministic fault campaign into the SPMD message \
             runtime before timing.  $(docv) is a comma-separated list of \
             $(i,KIND)[:$(i,RATE)] items with kinds drop, dup, reorder, \
             corrupt, delay, stall, crash or all (default rate 0.05), or \
             $(i,KIND)@$(i,EVENT) one-shots pinning a stall or crash to \
             one exact heartbeat window (e.g. $(b,crash@0)).  Rates \
             outside [0, 1], duplicate kinds and duplicate one-shots are \
             rejected.  The run must either recover (validation clean) \
             or fail with a structured diagnostic — exit 3.")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:
            "Seed of the fault campaign; a (spec, seed) pair names one \
             exact, reproducible schedule.")
  in
  let report_faults_arg =
    Arg.(
      value & flag
      & info [ "report-faults" ]
          ~doc:
            "Print the fault campaign report (injections, detections, \
             retransmits, checkpoints, restores, plan-driven failover \
             counters — replica refetches, region replays, checkpoint \
             escalations — and recovery time).")
  in
  let recovery_arg =
    let mode_conv =
      Arg.enum [ ("plan", Recover.Plan); ("checkpoint", Recover.Checkpoint) ]
    in
    Arg.(
      value
      & opt mode_conv Recover.Plan
      & info [ "recovery" ] ~docv:"MODE"
          ~doc:
            "Crash-recovery regime: $(b,plan) (default) follows the \
             compile-time recovery plan — localized failover that \
             rebuilds only the crashed processor from surviving replicas \
             and its own write log, escalating to checkpoints only when \
             the plan says so; $(b,checkpoint) forces the legacy global \
             checkpoint/write-ahead-log model.")
  in
  let max_retries_arg =
    Arg.(
      value
      & opt int Recover.default_config.Recover.max_retries
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "Retransmit attempts per message before the run fails with \
             E0703 (default 8).")
  in
  let checkpoint_interval_arg =
    Arg.(
      value
      & opt int Recover.default_config.Recover.checkpoint_interval
      & info [ "checkpoint-interval" ] ~docv:"N"
          ~doc:
            "Minimum statement events between shadow-memory checkpoints \
             in the checkpoint regime (default 32; scaled up for large \
             memories so the copying stays amortized).  The plan regime \
             takes no periodic checkpoints.")
  in
  let heartbeat_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "heartbeat-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Simulated seconds without a heartbeat before a processor is \
             suspected; a second silent window confirms the crash \
             (default: 8 message startup latencies of the cost model).")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Run on the SP2-like timing simulator and report times, \
          optionally under fault injection.")
    Term.(
      const run $ common_term () $ stats_arg $ faults_arg $ fault_seed_arg
      $ report_faults_arg $ report_comm_arg $ recovery_arg $ max_retries_arg
      $ checkpoint_interval_arg $ heartbeat_timeout_arg $ no_aggregate_arg
      $ fuel_arg $ topology_arg $ dump_after_arg)

let validate_cmd =
  let run co no_aggregate =
    run_compiling co @@ fun () ->
    let c, _trace = compile_program co in
    let st =
      Spmd_interp.run
        ~init:(Init.init c.Compiler.prog)
        ~aggregate:(not no_aggregate) c
    in
    match Spmd_interp.validate st with
    | [] ->
        Fmt.pr
          "OK: SPMD execution matches sequential reference (%d element \
           transfers)@."
          st.Spmd_interp.transfers;
        exit_ok
    | ms ->
        List.iter
          (fun m -> Fmt.pr "MISMATCH %a@." Spmd_interp.pp_mismatch m)
          ms;
        exit_mismatch
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Execute per-processor with explicit data movement and check \
          owned data against the sequential reference.")
    Term.(const run $ common_term () $ no_aggregate_arg)

let sweep_cmd =
  let run co procs_list topology =
    run_compiling co @@ fun () ->
    let model =
      Hpf_comm.Cost_model.with_topology Hpf_comm.Cost_model.sp2 topology
    in
    Fmt.pr "%6s %12s %10s %12s %10s@." "P" "time (s)" "speedup" "efficiency"
      "comm (s)";
    let base = ref None in
    List.iter
      (fun p ->
        let c, _trace = compile_program { co with procs = Some [ p ] } in
        let r, _ = Trace_sim.run ~model ~init:(Init.init c.Compiler.prog) c in
        let t = r.Trace_sim.time in
        let t1 =
          match !base with
          | None ->
              base := Some t;
              t
          | Some t1 -> t1
        in
        Fmt.pr "%6d %12.4f %10.2f %11.0f%% %10.4f@." p t (t1 /. t)
          (100.0 *. t1 /. t /. float_of_int p)
          r.Trace_sim.comm_time)
      procs_list;
    exit_ok
  in
  let procs_list =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8; 16 ]
      & info [ "sweep-procs" ] ~docv:"P1,P2,..."
          ~doc:"Processor counts to sweep (1-D grid).")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Simulate across processor counts and print a scaling table.")
    Term.(
      const run
      $ common_term ~procs:(Term.const None) ()
      $ procs_list $ topology_arg)

let serve_cmd =
  let run socket batch replay_dir requests domains timing verbose =
    setup_logs verbose;
    let usage_error fmt = usage_error ~code:"E0901" fmt in
    let domains =
      match domains with
      | Some d when d >= 1 -> d
      | Some _ -> exit (usage_error "--domains must be at least 1")
      | None -> Domain.recommended_domain_count ()
    in
    guarded @@ fun () ->
    match (batch, replay_dir, socket) with
    | Some batch_file, None, None -> (
        (* one-shot driver: requests from a file or stdin, responses in
           input order on stdout, summary on stderr *)
        match
          if batch_file = "-" then Phpf_serve.Serve.read_lines stdin
          else
            In_channel.with_open_text batch_file Phpf_serve.Serve.read_lines
        with
        | exception Sys_error msg ->
            usage_error "cannot read --batch %s: %s" batch_file msg
        | lines ->
            let r = Phpf_serve.Serve.run_batch ~timing ~domains lines in
            List.iter print_endline r.Phpf_serve.Serve.responses;
            Fmt.epr "serve: %d request(s), %d ok, %d failed, %d malformed@."
              r.Phpf_serve.Serve.requests r.Phpf_serve.Serve.succeeded
              r.Phpf_serve.Serve.failed r.Phpf_serve.Serve.rejected;
            r.Phpf_serve.Serve.exit_code)
    | None, Some _, None when requests < 1 ->
        usage_error "--requests must be at least 1 (got %d)" requests
    | None, Some dir, None ->
        (* replay harness: deterministic generated workload over every
           .hpfk program in the directory *)
        let programs =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".hpfk")
          |> List.sort compare
          |> List.map (fun f ->
                 let path = Filename.concat dir f in
                 let ic = open_in_bin path in
                 let n = in_channel_length ic in
                 let src = really_input_string ic n in
                 close_in ic;
                 (Filename.remove_extension f, src))
        in
        if programs = [] then usage_error "no .hpfk programs under %s" dir
        else begin
          let reqs = Phpf_serve.Serve.workload ~programs ~n:requests in
          let s = Phpf_serve.Serve.replay ~domains reqs in
          Fmt.pr "%s@."
            (Phpf_serve.Jsonx.to_string
               (Phpf_serve.Serve.summary_to_json s));
          if s.Phpf_serve.Serve.errors > 0 then exit_compile_error
          else exit_ok
        end
    | None, None, Some socket -> (
        let ready () =
          Fmt.epr "serve: listening on %s with %d domain(s)@." socket domains
        in
        match Phpf_serve.Serve.daemon ~ready ~socket ~domains () with
        | () -> exit_ok
        | exception Unix.Unix_error (err, fn, _) ->
            usage_error "cannot serve on --socket %s: %s (%s)" socket
              (Unix.error_message err) fn)
    | _ ->
        usage_error
          "serve needs exactly one of --batch FILE, --replay DIR or \
           --socket PATH"
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve forever on a Unix-domain socket at $(docv): one \
             request per line, responses streamed back in completion \
             order with timing/cache metadata.")
  in
  let batch_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "batch" ] ~docv:"FILE"
          ~doc:
            "One-shot driver: read line-delimited requests from $(docv) \
             ($(b,-) = stdin), print one response per line in input \
             order, then exit.  Responses carry only deterministic \
             fields, so the output is bit-identical for any \
             $(b,--domains) value.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some dir) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:
            "Replay a generated workload over every .hpfk program under \
             $(docv) (programs × option sets × actions, round-robin) \
             and print a JSON summary: latency percentiles, cache \
             counters, throughput and the determinism digest.")
  in
  let requests_arg =
    Arg.(
      value & opt int 1000
      & info [ "requests" ] ~docv:"N"
          ~doc:"Workload size for $(b,--replay) (default 1000).")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker-domain count (default: the runtime's recommended \
             domain count).")
  in
  let timing_arg =
    Arg.(
      value & flag
      & info [ "timing" ]
          ~doc:
            "Add per-response $(b,cached)/$(b,ms) metadata to \
             $(b,--batch) output (makes it non-deterministic).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Compile service on a pool of OCaml 5 domains: accept \
          programs as line-delimited JSON requests (compile, lint or \
          simulate), evaluate them concurrently behind a \
          content-addressed result cache, and stream structured JSON \
          responses back.  The purity contract of the compiler core \
          (docs/PIPELINE.md) is what makes concurrent requests safe; \
          responses are bit-identical whatever the domain count.")
    Term.(
      const run $ socket_arg $ batch_arg $ replay_arg $ requests_arg
      $ domains_arg $ timing_arg $ verbose_arg)

let print_cmd =
  let run file =
    guarded @@ fun () ->
    let p = Parser.parse_file file in
    let p = Sema.check p in
    Fmt.pr "%s@?" (Pp.program_to_string p);
    exit_ok
  in
  Cmd.v
    (Cmd.info "print" ~doc:"Parse, check and pretty-print a program.")
    Term.(const run $ file_arg)

let () =
  let doc = "prototype HPF compiler with privatization of variables" in
  let info =
    Cmd.info "phpfc" ~version:"1.0.0" ~doc
      ~man:
        [
          `S Manpage.s_exit_status;
          `P "0 on success, 1 on usage errors, 2 on compile errors \
              (structured diagnostics on stderr), 3 on runtime failures \
              ($(b,validate) mismatches, interpreter runtime errors, \
              unrecoverable or silently-diverging $(b,simulate --faults) \
              runs), 4 when $(b,lint) (or $(b,compile --verify)) finds \
              soundness errors.";
        ]
  in
  let code =
    Cmd.eval'
      (Cmd.group info
         [
           compile_cmd; lint_cmd; simulate_cmd; validate_cmd; sweep_cmd;
           serve_cmd; print_cmd;
         ])
  in
  exit (if code = Cmd.Exit.cli_error then exit_usage else code)
