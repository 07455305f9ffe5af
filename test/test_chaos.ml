(* Chaos differential suite for the fault-injecting message runtime.

   Every (benchmark, fault kind, seed) campaign must end in exactly one
   of two ways: the supervisor recovers and the SPMD execution still
   matches the sequential reference bit-for-bit, or the run terminates
   with a structured Recover.Unrecoverable diagnostic naming the
   injected fault.  A run that "succeeds" with diverged memories —
   silent divergence — is an automatic failure: that is the one outcome
   a fault-tolerant runtime must never produce. *)

open Phpf_core
open Hpf_spmd
open Hpf_benchmarks

(* The campaigns need the verbatim schedule's traffic to inject faults
   into: compile with the paper-faithful options (Sir optimizer off). *)
module Compiler = struct
  include Compiler

  let compile_exn ?grid_override ?(options = Variants.selected) p =
    compile_exn ?grid_override ~options p
end

let fail = Alcotest.fail
let check = Alcotest.check

let benchmarks =
  [
    ("fig1", fun () -> Fig_examples.fig1 ~n:40 ~p:4 ());
    ("fig2", fun () -> Fig_examples.fig2 ~n:16 ~np:4 ());
    ("fig7", fun () -> Fig_examples.fig7 ~n:24 ~p:4 ());
    ("tomcatv", fun () -> Tomcatv.program ~n:10 ~niter:2 ~p:4);
  ]

let seeds = [ 1; 2; 3 ]

(* every kind, each injected on its own so a failure names the culprit *)
let kinds = Fault.all_kinds

let run_campaign ?aggregate prog ~kind ~seed =
  let c = Compiler.compile_exn prog in
  let spec = [ (kind, 0.2) ] in
  let faults = Fault.make ~seed spec in
  match
    Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~faults ?aggregate c
  with
  | exception Recover.Unrecoverable ds ->
      if ds = [] then fail "Unrecoverable carried no diagnostics";
      `Failed_structured
  | st -> (
      match Spmd_interp.validate st with
      | [] -> `Recovered (Spmd_interp.fault_report st, Spmd_interp.comm_stats st)
      | m :: _ ->
          fail
            (Fmt.str "silent divergence under %a (seed %d): %a" Fault.pp_kind
               kind seed Spmd_interp.pp_mismatch m))

let test_no_silent_divergence () =
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun kind ->
          List.iter
            (fun seed ->
              (* run_campaign fails the test itself on divergence; name
                 the campaign here so the culprit is identifiable *)
              Logs.debug (fun m ->
                  m "chaos: %s / %s / seed %d" name (Fault.kind_to_string kind)
                    seed);
              match run_campaign (mk ()) ~kind ~seed with
              | `Failed_structured | `Recovered _ -> ())
            seeds)
        kinds)
    benchmarks

(* Block messaging under fire: with aggregation on (the default), the
   message-level kinds must injure whole blocks — and every campaign
   still ends recover-or-fail-loudly.  At least one campaign per
   benchmark must actually have put blocks on the wire, otherwise the
   matrix silently degraded to single-element packets. *)
let test_block_matrix () =
  let any_blocks = ref 0 in
  List.iter
    (fun (name, mk) ->
      (* does this benchmark put blocks on the wire at all?  (one whose
         aggregated pairs carry single elements legitimately ships only
         single-element packets) *)
      let fault_free_blocks =
        let c = Compiler.compile_exn (mk ()) in
        let st = Spmd_interp.run ~init:(Init.init c.Compiler.prog) c in
        (Spmd_interp.comm_stats st).Msg.blocks
      in
      let blocks_seen = ref 0 in
      List.iter
        (fun kind ->
          List.iter
            (fun seed ->
              match run_campaign ~aggregate:true (mk ()) ~kind ~seed with
              | `Failed_structured -> ()
              | `Recovered (_, (ms : Msg.stats)) ->
                  blocks_seen := !blocks_seen + ms.Msg.blocks)
            seeds)
        [ Fault.Drop; Fault.Corrupt; Fault.Reorder ];
      any_blocks := !any_blocks + !blocks_seen;
      if fault_free_blocks > 0 && !blocks_seen = 0 then
        fail
          (Fmt.str "%s: no campaign shipped a single aggregated block" name))
    benchmarks;
  if !any_blocks = 0 then
    fail "no benchmark put an aggregated block on the wire under faults"

(* The aggregated and per-element runtimes must be observationally
   identical: same validation verdict, same element-transfer count on
   every benchmark — blocks change the packaging, never the data. *)
let test_aggregation_ab () =
  List.iter
    (fun (name, mk) ->
      let run aggregate =
        let c = Compiler.compile_exn (mk ()) in
        let st =
          Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~aggregate c
        in
        (match Spmd_interp.validate st with
        | [] -> ()
        | m :: _ ->
            fail
              (Fmt.str "%s (aggregate=%b): %a" name aggregate
                 Spmd_interp.pp_mismatch m));
        (st.Spmd_interp.transfers, Spmd_interp.comm_stats st)
      in
      let tr_agg, ms_agg = run true in
      let tr_one, ms_one = run false in
      check Alcotest.int
        (Fmt.str "%s: transfer counts identical" name)
        tr_one tr_agg;
      check Alcotest.int
        (Fmt.str "%s: elements on the wire identical" name)
        ms_one.Msg.elems ms_agg.Msg.elems;
      check Alcotest.int
        (Fmt.str "%s: per-element mode ships no blocks" name)
        0 ms_one.Msg.blocks;
      if ms_agg.Msg.packets > ms_one.Msg.packets then
        fail
          (Fmt.str "%s: aggregation increased packets (%d > %d)" name
             ms_agg.Msg.packets ms_one.Msg.packets))
    benchmarks

(* The paper's headline effect (§1, Fig. 2), measured: on TOMCATV at
   n=66 on 8 processors, vectorized placement shipped as blocks must
   move at least 5x fewer packets than per-element messaging, at
   identical validation results and element counts. *)
let test_tomcatv_packet_reduction () =
  let run aggregate =
    let c = Compiler.compile_exn (Tomcatv.program ~n:66 ~niter:1 ~p:8) in
    let st =
      Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~aggregate c
    in
    (match Spmd_interp.validate st with
    | [] -> ()
    | m :: _ ->
        fail
          (Fmt.str "tomcatv n=66 (aggregate=%b): %a" aggregate
             Spmd_interp.pp_mismatch m));
    (st.Spmd_interp.transfers, Spmd_interp.comm_stats st)
  in
  let tr_agg, ms_agg = run true in
  let tr_one, ms_one = run false in
  check Alcotest.int "transfer counts identical" tr_one tr_agg;
  check Alcotest.int "elements identical" ms_one.Msg.elems ms_agg.Msg.elems;
  if ms_one.Msg.packets < 5 * ms_agg.Msg.packets then
    fail
      (Fmt.str "aggregation saved too little: %d packets vs %d per-element"
         ms_agg.Msg.packets ms_one.Msg.packets)

(* Recovered campaigns that actually injected something must show their
   scars: the supervisor either detected faults or paid recovery time. *)
let test_recovery_visible () =
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun kind ->
          List.iter
            (fun seed ->
              match run_campaign (mk ()) ~kind ~seed with
              | `Failed_structured -> ()
              | `Recovered ((r : Recover.report), _) ->
                  if
                    r.Recover.total_injected > 0 && r.Recover.detected = 0
                    && r.Recover.recovery_time = 0.0
                  then
                    fail
                      (Fmt.str
                         "%s / %a / seed %d: %d faults injected but \
                          nothing detected and no recovery cost"
                         name Fault.pp_kind kind seed
                         r.Recover.total_injected))
            seeds)
        kinds)
    benchmarks

(* A lossy-link campaign over a communicating benchmark must exercise
   the retransmit and checkpoint machinery, not just survive.  Pinned to
   the legacy checkpoint regime: under the default plan regime fig2's
   checkpoint-free plan deliberately takes zero checkpoints. *)
let test_retries_and_checkpoints () =
  let prog = Fig_examples.fig2 ~n:16 ~np:4 () in
  let c = Compiler.compile_exn prog in
  let faults = Fault.make ~seed:1 [ (Fault.Drop, 0.3) ] in
  let recover_config =
    { Recover.default_config with Recover.mode = Recover.Checkpoint }
  in
  let st =
    Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~faults ~recover_config c
  in
  check (Alcotest.list Alcotest.reject) "validates clean" []
    (Spmd_interp.validate st);
  let r = Spmd_interp.fault_report st in
  if r.Recover.retries = 0 then fail "drop:0.3 caused no retransmits";
  if r.Recover.checkpoints = 0 then
    fail "active schedule took no checkpoints";
  if r.Recover.recovery_time <= 0.0 then fail "recovery cost not charged"

(* A crash campaign on fig1 restores from checkpoint + WAL replay even
   under the plan regime: fig1's privatized no-align scalars carry union
   guards, so its plan demands checkpoints and every crash is counted as
   an escalation. *)
let test_crash_restores () =
  let prog = Fig_examples.fig1 ~n:40 ~p:4 () in
  let c = Compiler.compile_exn prog in
  let faults = Fault.make ~seed:2 [ (Fault.Crash, 0.1) ] in
  let st = Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~faults c in
  check (Alcotest.list Alcotest.reject) "validates clean" []
    (Spmd_interp.validate st);
  let r = Spmd_interp.fault_report st in
  if r.Recover.crashes = 0 then fail "crash:0.1 never crashed a processor";
  check Alcotest.int "every crash restored" r.Recover.crashes
    r.Recover.restores;
  check Alcotest.int "every plan-regime restore counted as escalation"
    r.Recover.crashes r.Recover.escalations;
  check Alcotest.int "no localized refetches on the escalated path" 0
    (r.Recover.plan_refetch + r.Recover.plan_reexec)

(* ------------------------------------------------------------------ *)
(* Plan-driven localized failover                                      *)
(* ------------------------------------------------------------------ *)

(* Structural bit-equality of two shadow memories: every scalar binding
   and every array element. *)
let mem_equal (a : Memory.t) (b : Memory.t) =
  let arrays_of (m : Memory.t) =
    List.map
      (fun name ->
        let elems = ref [] in
        Memory.iter_elems m name (fun idx v -> elems := (idx, v) :: !elems);
        (name, List.rev !elems))
      (Memory.arrays m)
  in
  Memory.scalars a = Memory.scalars b && arrays_of a = arrays_of b

let crash_at prog ~window ~mode =
  let c = Compiler.compile_exn prog in
  let faults = Fault.make ~seed:1 ~oneshots:[ (Fault.Crash, window) ] [] in
  let recover_config = { Recover.default_config with Recover.mode } in
  let st =
    Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~faults ~recover_config c
  in
  (match Spmd_interp.validate st with
  | [] -> ()
  | m :: _ ->
      fail (Fmt.str "crash@%d diverged: %a" window Spmd_interp.pp_mismatch m));
  st

(* fig2's plan is checkpoint-free, so a pinned crash under the default
   plan regime must be repaired by localized failover alone: the crash
   is suspected then confirmed, replicated datums are re-fetched from a
   survivor, owner-partitioned datums replayed from the log — and the
   global machinery stays cold (no checkpoints, no restores, no
   escalations). *)
let test_plan_localized_failover () =
  let st =
    crash_at (Fig_examples.fig2 ~n:16 ~np:4 ()) ~window:0 ~mode:Recover.Plan
  in
  let r = Spmd_interp.fault_report st in
  check Alcotest.int "exactly one crash" 1 r.Recover.crashes;
  if r.Recover.suspects < 1 then fail "failure detector never suspected";
  if r.Recover.plan_refetch = 0 then fail "no replica refetches";
  if r.Recover.plan_reexec = 0 then fail "no region replays";
  check Alcotest.int "no checkpoints under the plan regime" 0
    r.Recover.checkpoints;
  check Alcotest.int "no full restores" 0 r.Recover.restores;
  check Alcotest.int "no escalations" 0 r.Recover.escalations;
  if r.Recover.recovery_time <= 0.0 then fail "failover cost not charged"

(* Same campaign, --recovery checkpoint: the legacy global regime takes
   over — full restore, no localized counters. *)
let test_forced_checkpoint_ab () =
  let st =
    crash_at
      (Fig_examples.fig2 ~n:16 ~np:4 ())
      ~window:0 ~mode:Recover.Checkpoint
  in
  let r = Spmd_interp.fault_report st in
  check Alcotest.int "every crash restored" r.Recover.crashes
    r.Recover.restores;
  check Alcotest.int "no localized counters" 0
    (r.Recover.suspects + r.Recover.plan_refetch + r.Recover.plan_reexec);
  check Alcotest.int "forced regime is not an escalation" 0
    r.Recover.escalations

(* The acceptance scenario: TOMCATV, one pinned crash, plan regime.  The
   final shadow memories must be bit-identical to the fault-free run's —
   localized failover reconstructs state exactly, not approximately. *)
let test_tomcatv_crash_bit_identical () =
  let mk () = Tomcatv.program ~n:10 ~niter:2 ~p:4 in
  let fault_free =
    let c = Compiler.compile_exn (mk ()) in
    Spmd_interp.run ~init:(Init.init c.Compiler.prog) c
  in
  check (Alcotest.list Alcotest.reject) "fault-free validates" []
    (Spmd_interp.validate fault_free);
  let st = crash_at (mk ()) ~window:0 ~mode:Recover.Plan in
  let r = Spmd_interp.fault_report st in
  check Alcotest.int "plan-driven: no full restores" 0 r.Recover.restores;
  if r.Recover.plan_refetch + r.Recover.plan_reexec = 0 then
    fail "crash repaired without any plan action";
  Array.iteri
    (fun pid m ->
      if not (mem_equal m fault_free.Spmd_interp.procs.(pid)) then
        fail
          (Fmt.str "processor %d memory differs from the fault-free run" pid))
    st.Spmd_interp.procs

(* Sweep the crash across every heartbeat window of fig1: whichever
   statement the failure lands on, the run must converge to the
   fault-free machine state (checkpoint escalation included — fig1's
   plan demands it). *)
let test_crash_window_sweep () =
  let mk () = Fig_examples.fig1 ~n:24 ~p:4 () in
  let fault_free =
    let c = Compiler.compile_exn (mk ()) in
    Spmd_interp.run ~init:(Init.init c.Compiler.prog) c
  in
  for window = 0 to 11 do
    let st = crash_at (mk ()) ~window ~mode:Recover.Plan in
    Array.iteri
      (fun pid m ->
        if not (mem_equal m fault_free.Spmd_interp.procs.(pid)) then
          fail
            (Fmt.str "crash@%d: processor %d differs from fault-free run"
               window pid))
      st.Spmd_interp.procs
  done

(* Without a fault schedule the runtime must be invisible: no recovery
   counters, no recovery cost, and the same transfer count as always. *)
let test_inert_without_faults () =
  let prog = Fig_examples.fig1 ~n:40 ~p:4 () in
  let c = Compiler.compile_exn prog in
  let st = Spmd_interp.run ~init:(Init.init c.Compiler.prog) c in
  check (Alcotest.list Alcotest.reject) "validates clean" []
    (Spmd_interp.validate st);
  let r = Spmd_interp.fault_report st in
  check Alcotest.int "nothing injected" 0 r.Recover.total_injected;
  check Alcotest.int "nothing detected" 0 r.Recover.detected;
  check Alcotest.int "no retries" 0 r.Recover.retries;
  check Alcotest.int "no checkpoints" 0 r.Recover.checkpoints;
  check (Alcotest.float 0.0) "no recovery cost" 0.0 r.Recover.recovery_time;
  check Alcotest.int "messages all delivered" r.Recover.messages_sent
    r.Recover.messages_delivered

(* Campaigns are deterministic: same (spec, seed) twice gives the same
   report, a different seed gives a different campaign somewhere. *)
let test_campaign_determinism () =
  let prog = Fig_examples.fig2 ~n:16 ~np:4 () in
  let run seed =
    let c = Compiler.compile_exn prog in
    let faults = Fault.make ~seed [ (Fault.Drop, 0.2); (Fault.Corrupt, 0.2) ] in
    let st = Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~faults c in
    (Spmd_interp.validate st, Spmd_interp.fault_report st)
  in
  let v1, r1 = run 5 and v2, r2 = run 5 in
  check (Alcotest.list Alcotest.reject) "first run validates" [] v1;
  check (Alcotest.list Alcotest.reject) "second run validates" [] v2;
  check Alcotest.int "same injections" r1.Recover.total_injected
    r2.Recover.total_injected;
  check Alcotest.int "same retries" r1.Recover.retries r2.Recover.retries;
  check (Alcotest.float 0.0) "same recovery time" r1.Recover.recovery_time
    r2.Recover.recovery_time

let () =
  Alcotest.run "chaos"
    [
      ( "differential",
        [
          Alcotest.test_case "no silent divergence (all kinds x seeds)"
            `Quick test_no_silent_divergence;
          Alcotest.test_case "recovery leaves visible scars" `Quick
            test_recovery_visible;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "drop/corrupt/reorder x seeds over blocks"
            `Quick test_block_matrix;
          Alcotest.test_case "aggregated == per-element (all benchmarks)"
            `Quick test_aggregation_ab;
          Alcotest.test_case "tomcatv n=66 P=8 moves 5x fewer packets"
            `Quick test_tomcatv_packet_reduction;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "lossy link retransmits and checkpoints"
            `Quick test_retries_and_checkpoints;
          Alcotest.test_case "crashes restore from checkpoint + WAL" `Quick
            test_crash_restores;
        ] );
      ( "plan",
        [
          Alcotest.test_case "localized failover repairs a pinned crash"
            `Quick test_plan_localized_failover;
          Alcotest.test_case "--recovery checkpoint forces the legacy regime"
            `Quick test_forced_checkpoint_ab;
          Alcotest.test_case "tomcatv crash converges bit-identically" `Quick
            test_tomcatv_crash_bit_identical;
          Alcotest.test_case "crash at every window converges (fig1)" `Quick
            test_crash_window_sweep;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "inert without faults" `Quick
            test_inert_without_faults;
          Alcotest.test_case "campaign determinism" `Quick
            test_campaign_determinism;
        ] );
    ]
