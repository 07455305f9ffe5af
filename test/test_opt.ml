(* Soundness property suite for the Sir optimizer (lib/ir/sir_opt).

   Property layer, on every benchmark under the default (optimizing)
   options: (a) the recorded witnesses, applied to a fresh lowering,
   rebuild the optimized program, and the pass pipeline is a fixpoint —
   running it a second time rewrites nothing; (b) the
   post-optimization verify-flow audit reports zero W0606/W0607 — the
   optimizer consumed exactly what the analysis proves removable; (c)
   the delete-and-diff oracle holds on the optimized program — every
   surviving transfer is load-bearing,
   so deleting any one of them trips E0612; (d) a pinned crash@0
   failover on the optimized TOMCATV stays bit-identical to the
   fault-free shadow memories (recovery plans are computed after
   optimization, so they never reference deleted ops).

   Unit layer: crafted programs exercising merge, hoist (an unrelated
   earlier loop over the same index included) and combine
   individually, plus the nest's written-in query hoist reads and the
   block_free_vars hook.  The measured-traffic regression pins
   Msg.stats as per-run state: two identical runs in one process report
   identical counters. *)

open Hpf_lang
open Phpf_core
open Phpf_ir
open Phpf_verify
open Hpf_spmd
open Hpf_benchmarks

let check = Alcotest.check
let fail = Alcotest.fail
let parse src = Sema.check (Parser.parse_string src)

let benchmarks =
  [
    ("fig1", fun () -> Fig_examples.fig1 ~n:40 ~p:4 ());
    ("fig2", fun () -> Fig_examples.fig2 ~n:16 ~np:4 ());
    ("fig7", fun () -> Fig_examples.fig7 ~n:24 ~p:4 ());
    ("tomcatv", fun () -> Tomcatv.program ~n:14 ~niter:2 ~p:4);
    ("dgefa", fun () -> Dgefa.program ~n:12 ~p:4);
    ("appsp2d", fun () -> Appsp.program_2d ~n:8 ~niter:1 ~p1:2 ~p2:2);
    ("appsp1d", fun () -> Appsp.program_1d ~n:8 ~niter:1 ~p:2);
  ]

(* The system under test is the default pipeline: optimizer ON. *)
let compiled_of name prog =
  match Compiler.compile prog with
  | Ok c -> c
  | Error ds -> fail (Fmt.str "%s does not compile: %a" name Diag.pp_list ds)

let sir_of name (c : Compiler.compiled) =
  match c.Compiler.sir with
  | Some s -> s
  | None -> fail (Fmt.str "%s carries no lowered program" name)

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds
let has_code c ds = List.mem c (codes ds)

(* ---------------- (a) the pipeline is a fixpoint ---------------- *)

let test_pipeline_fixpoint () =
  List.iter
    (fun (name, prog) ->
      let c = compiled_of name (prog ()) in
      let sir = sir_of name c in
      (* the witnesses are a complete edit script: replayed on a fresh
         lowering they rebuild the optimized program *)
      let rebuilt = Oracles.relower c in
      let e = Sir_opt.editor rebuilt in
      List.iter
        (fun w ->
          if Sir_opt.edit e w = None then
            fail (name ^ ": a witness does not apply to a fresh lowering"))
        sir.Sir.opt_applied;
      check Alcotest.string
        (name ^ ": the witnesses rebuild the optimized program")
        (Sir_pp.to_string sir) (Sir_pp.to_string rebuilt);
      List.iter
        (fun (pass, k) ->
          check Alcotest.int
            (Fmt.str "%s: second %s run rewrites nothing" name pass)
            0 k)
        (Sir_opt.run ~nest:c.Compiler.decisions.Decisions.nest sir))
    benchmarks

(* ------------- (b) nothing removable survives the opt ------------- *)

let test_no_removable_transfers_survive () =
  List.iter
    (fun (name, prog) ->
      let c = compiled_of name (prog ()) in
      match Sir_flow.analyze c with
      | None -> fail (name ^ ": no analysis (missing sir)")
      | Some a ->
          check Alcotest.int
            (name ^ ": zero dead transfers post-opt")
            0
            (List.length a.Sir_flow.dead);
          check Alcotest.int
            (name ^ ": zero redundant transfers post-opt")
            0
            (List.length a.Sir_flow.redundant);
          check Alcotest.bool
            (name ^ ": no W0606/W0607 findings post-opt")
            false
            (has_code Codes.w_dead_xfer a.Sir_flow.findings
            || has_code Codes.w_redundant_xfer a.Sir_flow.findings);
          check Alcotest.bool
            (name ^ ": no stale reads introduced")
            true
            (a.Sir_flow.stale = []))
    benchmarks

(* --------- (c) delete-and-diff oracle on the optimized Sir --------- *)

let delete_op (sir : Sir.program) (uid : int) : Sir.program =
  let stmts = Hashtbl.copy sir.Sir.stmts in
  Hashtbl.iter
    (fun sid (ops : Sir.stmt_ops) ->
      if List.exists (fun (o : Sir.comm_op) -> o.Sir.uid = uid) ops.Sir.comms
      then
        Hashtbl.replace stmts sid
          {
            ops with
            Sir.comms =
              List.filter
                (fun (o : Sir.comm_op) -> o.Sir.uid <> uid)
                ops.Sir.comms;
          })
    sir.Sir.stmts;
  { sir with Sir.stmts = stmts }

let transfer_ops (sir : Sir.program) : (Ast.stmt_id * Sir.comm_op) list =
  List.concat_map
    (fun (ops : Sir.stmt_ops) ->
      List.filter_map
        (fun (o : Sir.comm_op) ->
          match o.Sir.xfer with
          | Sir.Reduce_xfer -> None
          | _ -> Some (ops.Sir.sid, o))
        ops.Sir.comms)
    (Sir.all_stmt_ops sir)

let with_sir (c : Compiler.compiled) sir = { c with Compiler.sir = Some sir }

let test_oracle_on_optimized (name, prog) () =
  let c = compiled_of name (prog ()) in
  let sir = sir_of name c in
  (match Sir_flow.analyze c with
  | None -> fail (name ^ ": no analysis")
  | Some a ->
      check Alcotest.int
        (name ^ ": the optimizer left nothing removable")
        0
        (List.length (Sir_flow.removable a)));
  (* every survivor is load-bearing: deleting it must be detected *)
  List.iter
    (fun ((_, op) : _ * Sir.comm_op) ->
      check Alcotest.bool
        (Fmt.str "%s: deleting surviving c%d (uid %d) trips E0612" name
           op.Sir.pos op.Sir.uid)
        true
        (has_code Codes.e_stale_read
           (Sir_flow.check (with_sir c (delete_op sir op.Sir.uid)))))
    (transfer_ops sir)

(* -------- (d) crash@0 failover on the optimized TOMCATV -------- *)

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

let test_optimized_crash_failover () =
  let c = compiled_of "tomcatv" (Tomcatv.program ~n:14 ~niter:2 ~p:4) in
  let sir = sir_of "tomcatv" c in
  check Alcotest.bool "the optimizer rewrote the schedule" true
    (sir.Sir.opt_applied <> []);
  let init = Init.init c.Compiler.prog in
  let clean = Spmd_interp.run ~init ~sir c in
  (match Spmd_interp.validate clean with
  | [] -> ()
  | m :: _ -> fail (Fmt.str "fault-free run diverged: %a" Spmd_interp.pp_mismatch m));
  let faults = Fault.make ~seed:1 ~oneshots:[ (Fault.Crash, 0) ] [] in
  let recover_config =
    { Recover.default_config with Recover.mode = Recover.Plan }
  in
  let st = Spmd_interp.run ~init ~faults ~recover_config ~sir c in
  (match Spmd_interp.validate st with
  | [] -> ()
  | m :: _ -> fail (Fmt.str "crash@0 diverged: %a" Spmd_interp.pp_mismatch m));
  let r = Spmd_interp.fault_report st in
  check Alcotest.int "exactly one crash" 1 r.Recover.crashes;
  check Alcotest.int "no full restores" 0 r.Recover.restores;
  check Alcotest.bool "the plan fired on the optimized schedule" true
    (r.Recover.plan_refetch + r.Recover.plan_reexec > 0);
  Array.iteri
    (fun pid m ->
      check Alcotest.bool
        (Fmt.str "processor %d bit-identical to the fault-free run" pid)
        true
        (mem_equal m clean.Spmd_interp.procs.(pid)))
    st.Spmd_interp.procs

(* ------------- Msg.stats is per-run state (regression) ------------- *)

(* The bench harness A/B-compares optimized and --no-opt traffic inside
   one process: stale counters leaking between runs would corrupt the
   comparison.  Stats live in the per-run Recover/Msg instance, so two
   identical runs must report identical numbers. *)
let test_msg_stats_repeatable () =
  let c = compiled_of "fig1" (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  let sir = sir_of "fig1" c in
  let measure () =
    let st = Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~sir c in
    (match Spmd_interp.validate st with
    | [] -> ()
    | m :: _ -> fail (Fmt.str "diverged: %a" Spmd_interp.pp_mismatch m));
    Spmd_interp.comm_stats st
  in
  let a = measure () in
  let b = measure () in
  check Alcotest.int "packets repeat" a.Msg.packets b.Msg.packets;
  check Alcotest.int "blocks repeat" a.Msg.blocks b.Msg.blocks;
  check Alcotest.int "elems repeat" a.Msg.elems b.Msg.elems;
  check Alcotest.int "bytes repeat" a.Msg.bytes b.Msg.bytes;
  check Alcotest.bool "the run actually communicated" true (a.Msg.packets > 0)

(* ------- prepared deletion loop = fresh summarize per deletion ------- *)

(* The reference loop: a fresh CFG, interning table and plans for
   every deletion. *)
let fresh_loop
    (select : Sir_dataflow.summary -> (Ast.stmt_id * Sir.comm_op) list)
    (sir : Sir.program) : int =
  let rec go deleted =
    match select (Sir_dataflow.summarize sir) with
    | [] -> deleted
    | (_, (op : Sir.comm_op)) :: _ ->
        Hashtbl.filter_map_inplace
          (fun _ (ops : Sir.stmt_ops) ->
            Some
              {
                ops with
                Sir.comms =
                  List.filter
                    (fun (o : Sir.comm_op) -> o.Sir.uid <> op.Sir.uid)
                    ops.Sir.comms;
              })
          sir.Sir.stmts;
        go (deleted + 1)
  in
  go 0

let copy (sir : Sir.program) =
  { sir with Sir.stmts = Hashtbl.copy sir.Sir.stmts }

let test_prepared_matches_fresh () =
  let total = ref 0 in
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun (oname, options) ->
          let tag = name ^ "/" ^ oname in
          let c =
            match Compiler.compile ~options (prog ()) with
            | Ok c -> c
            | Error ds -> fail (Fmt.str "%s: %a" tag Diag.pp_list ds)
          in
          (* the schedule as lowered, before any rewrite *)
          let lowered = Oracles.relower c in
          let prepared = copy lowered and fresh = copy lowered in
          let k_dte = Sir_opt.rewrites (Sir_opt.dte prepared) in
          let k_rte = Sir_opt.rewrites (Sir_opt.rte prepared) in
          total := !total + k_dte + k_rte;
          check Alcotest.int (tag ^ ": dte deletions") k_dte
            (fresh_loop (fun s -> s.Sir_dataflow.dead) fresh);
          check Alcotest.int (tag ^ ": rte deletions") k_rte
            (fresh_loop (fun s -> s.Sir_dataflow.redundant) fresh);
          check Alcotest.string (tag ^ ": same Sir") (Sir_pp.to_string fresh)
            (Sir_pp.to_string prepared))
        Phpf_serve.Serve.workload_option_sets)
    (benchmarks
    @ [
        ( "tomcatv@4",
          fun () -> Tomcatv.program ~n:66 ~niter:1 ~p:4 );
        ( "appsp_2d@4",
          fun () -> Appsp.program_2d ~n:18 ~niter:1 ~p1:2 ~p2:2 );
        ( "tomcatv_x2",
          fun () -> Prog_gen.compose 2 (Tomcatv.program ~n:66 ~niter:1 ~p:4) );
      ]);
  check Alcotest.bool
    (Fmt.str "the loops deleted transfers (%d)" !total)
    true (!total > 0)

(* ------ rte from one analysis = the one-at-a-time loop ------ *)

(* [Sir_opt.rte] against [Oracles.rte_loop] on the examples, the bench
   kernels and composed tomcatv, under every optimizing option set of
   the serve workload: same witnesses, same program, both after [dte]
   and with [rte] alone (dead transfers left in place). *)
let test_rte_matches_loop () =
  let total = ref 0 in
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun (oname, options) ->
          if options.Decisions.optimize then begin
            let tag = name ^ "/" ^ oname in
            let c =
              match Compiler.compile ~options (prog ()) with
              | Ok c -> c
              | Error ds -> fail (Fmt.str "%s: %a" tag Diag.pp_list ds)
            in
            let lowered = Oracles.relower c in
            let after_dte = copy lowered in
            ignore (Sir_opt.dte after_dte);
            List.iter
              (fun (stage, sir) ->
                match Oracles.rte_vs_loop sir with
                | Ok k -> total := !total + k
                | Error why -> fail (Fmt.str "%s (%s): %s" tag stage why))
              [ ("after dte", after_dte); ("rte alone", lowered) ]
          end)
        Phpf_serve.Serve.workload_option_sets)
    (List.map (fun (n, p) -> (n, fun () -> p)) (Prog_gen.examples ())
    @ benchmarks
    @ [
        ( "tomcatv_x2",
          fun () -> Prog_gen.compose 2 (Tomcatv.program ~n:66 ~niter:1 ~p:4) );
        ( "tomcatv_x4",
          fun () -> Prog_gen.compose 4 (Tomcatv.program ~n:66 ~niter:1 ~p:4) );
      ]);
  check Alcotest.bool
    (Fmt.str "rte deleted transfers (%d)" !total)
    true (!total > 0)

(* A deletion can leave a later candidate dead.  Broadcasts of [b] sit
   at IFs whose conditions read only enclosing loop indices, which every
   processor mirrors, so no statement reads [b] on a processor but the
   broadcasts themselves (and [y = b] in the second program); the first
   broadcast is covered by the guarded write [b = 1.0] above it.  In
   [dead_after_rte_src] the second is covered by the unconditional
   [b = 2.0]; the first broadcast is live only through its own next
   iteration and the second only through the first on the next outer
   iteration.  In [dead_unreached_src] the second sits after an EXIT,
   so it is never reached, and [y = b] below it reads [b]; its CYCLE
   joins the loop, and the liveness worklist visits that unreached code
   only while the first broadcast keeps [b] live around the loop.  Both
   broadcasts are redundant in one analysis; once the first goes, the
   second is dead, and the one-at-a-time loop keeps it. *)
let dead_after_rte_src =
  {|
program deadrte
real b, x
real a(4)
!hpf$ processors p(2)
!hpf$ distribute a(block) onto p
do t = 1, 3
  b = 1.0
  do i = 1, 4
    if (i > 0) then
      a(i) = 1.0
    end if
  end do
  b = 2.0
  if (t > 1) then
    x = 1.0
  end if
end do
end
|}

let dead_unreached_src =
  {|
program deadunreach
real b, x, y
do t = 1, 3
  b = 1.0
  if (t > 0) then
    x = 1.0
  end if
  if (t > 2) then
    exit
    if (t > 1) then
      y = b
      cycle
    end if
  end if
end do
end
|}

(* [src] lowered without its transfers and reduction steps, plus a
   broadcast of [b] to the first processor (uids 1, 2, ... in program
   order) at the IFs numbered [at] (0-based, program order); the writes
   of [b] are computed by [computes], in program order.  Returns the Sir
   and the writes' statements. *)
let broadcasts_of_b src ~at (computes : Sir.pred list) =
  let c = compiled_of "rte" (parse src) in
  let sir = Oracles.relower c in
  let writes = ref [] and ifs = ref [] in
  Ast.iter_program
    (fun s ->
      match s.Ast.node with
      | Ast.Assign (Ast.LVar "b", _) -> writes := s.Ast.sid :: !writes
      | Ast.If _ -> ifs := s.Ast.sid :: !ifs
      | _ -> ())
    c.Compiler.prog;
  let writes = List.rev !writes
  and ifs = List.filteri (fun k _ -> List.mem k at) (List.rev !ifs) in
  let broadcast sid uid =
    {
      Sir.uid;
      pos = uid;
      cm =
        {
          Hpf_comm.Comm.data = Hpf_analysis.Aref.scalar sid "b";
          kind = Hpf_comm.Comm.Broadcast;
          stmt_level = 1;
          placement_level = 1;
          elems_per_instance = 1;
          instances = 1;
          group = None;
          agg_vars = [];
          scale = 1;
          boundary_fraction = 1.0;
        };
      xfer =
        Sir.Elem_xfer
          {
            data = Sir.X_scalar { var = "b"; owner = [| Sir.C_all |] };
            dests = Sir.D_pred (Sir.P_place [| Sir.C_fixed 0 |]);
          };
    }
  in
  Hashtbl.filter_map_inplace
    (fun sid (ops : Sir.stmt_ops) ->
      Some
        {
          ops with
          Sir.red_steps = [];
          comms =
            List.concat
              (List.mapi
                 (fun k x -> if x = sid then [ broadcast sid (k + 1) ] else [])
                 ifs);
          exec =
            (match (List.assoc_opt sid (List.combine writes computes), ops.Sir.exec) with
            | Some computes, Sir.Guarded_assign g ->
                Sir.Guarded_assign { g with computes }
            | _, exec -> exec);
        })
    sir.Sir.stmts;
  (sir, writes)

let test_rte_skips_newly_dead (src, at, computes) () =
  let sir, writes = broadcasts_of_b src ~at computes in
  let s = Sir_dataflow.summarize (copy sir) in
  check (Alcotest.list Alcotest.int) "both broadcasts redundant" [ 1; 2 ]
    (List.map
       (fun (_, (op : Sir.comm_op)) -> op.Sir.uid)
       s.Sir_dataflow.redundant);
  check Alcotest.int "neither dead" 0 (List.length s.Sir_dataflow.dead);
  let want =
    [ Sir.W_redundant { uid = 1; covers = [ Sir.F_write (List.hd writes) ] } ]
  in
  check Alcotest.bool "the loop deletes the first only" true
    (Oracles.rte_loop (copy sir) = want);
  check Alcotest.bool "rte deletes the first only" true
    (Sir_opt.rte (copy sir) = want)

(* ---------------------- unit: merge ---------------------- *)

(* Two reads of the same shifted row differing only in a constant
   column.  Both columns are rewritten each iteration, so neither
   shift vectorizes: the lowering pins two same-(src, dst) element
   transfers at the statement, and merge fuses them into one block. *)
let merge_src =
  {|
program m
parameter n = 16
real u(17,2), b(16)
!hpf$ processors p(4)
!hpf$ distribute b(block) onto p
!hpf$ align u(i,*) with b(i)
do i = 1, n
  b(i) = u(i+1,1) + u(i+1,2)
  u(i,1) = b(i) * 0.5
  u(i,2) = b(i) * 2.0
end do
end
|}

let test_merge_fuses_adjacent_elements () =
  let c =
    Compiler.compile_exn ~options:Variants.selected (parse merge_src)
  in
  let sir = sir_of "merge" c in
  let before = Sir.op_counts sir in
  check Alcotest.bool "lowering produced element-transfer pairs" true
    (before.Sir.elem_xfers >= 2);
  let fused = Sir_opt.rewrites (Sir_opt.merge sir) in
  let after = Sir.op_counts sir in
  check Alcotest.bool "merge fused at least one pair" true (fused >= 1);
  check Alcotest.int "each fusion consumes two element transfers"
    (before.Sir.elem_xfers - (2 * fused))
    after.Sir.elem_xfers;
  check Alcotest.int "each fusion produces one block transfer"
    (before.Sir.block_xfers + fused)
    after.Sir.block_xfers;
  check Alcotest.int "merge is locally idempotent" 0
    (Sir_opt.rewrites (Sir_opt.merge sir));
  (* the fused schedule still executes: the block walks its synthetic
     %m index without clobbering program state; the per-element
     transport ships the same program with no block on the wire *)
  List.iter
    (fun aggregate ->
      let st =
        Spmd_interp.run
          ~init:(Init.init c.Compiler.prog)
          ~aggregate ~sir c
      in
      check Alcotest.int
        (Fmt.str "fused schedule validates clean (aggregate=%b)" aggregate)
        0
        (List.length (Spmd_interp.validate st));
      let blocks = (Spmd_interp.comm_stats st).Msg.blocks in
      check Alcotest.bool
        (Fmt.str "fused schedule ships blocks iff aggregate=%b" aggregate)
        aggregate (blocks > 0))
    [ true; false ]

(* ---------------------- unit: hoist ---------------------- *)

(* The vectorized shift pinned inside an outer iteration loop.  When
   the outer body rewrites the shifted array the prefix index is
   load-bearing and hoist must keep it; when a hand-planted prefix
   index controls nothing the block depends on, hoist drops it. *)
let shift_src rewrite =
  Fmt.str
    {|
program h
parameter n = 32
parameter niter = 5
real a(32), b(32), c(32)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ align b(i) with a(i)
!hpf$ align c(i) with a(i)
do it = 1, niter
  do i = 2, n
    b(i) = a(i - 1)
  end do
  do i = 1, n
    %s = b(i) * 0.5
  end do
end do
end
|}
    (if rewrite then "a(i)" else "c(i)")

let find_block (sir : Sir.program) =
  List.find_map
    (fun (ops : Sir.stmt_ops) ->
      List.find_map
        (fun (op : Sir.comm_op) ->
          match op.Sir.xfer with
          | Sir.Block_xfer { data; dests; crossed; prefix_vars } ->
              Some (ops.Sir.sid, op, data, dests, crossed, prefix_vars)
          | _ -> None)
        ops.Sir.comms)
    (Sir.all_stmt_ops sir)

let replace_comm (sir : Sir.program) sid uid (op' : Sir.comm_op) =
  match Hashtbl.find_opt sir.Sir.stmts sid with
  | None -> fail (Fmt.str "no stmt_ops for s%d" sid)
  | Some ops ->
      Hashtbl.replace sir.Sir.stmts sid
        {
          ops with
          Sir.comms =
            List.map
              (fun (o : Sir.comm_op) -> if o.Sir.uid = uid then op' else o)
              ops.Sir.comms;
        }

let test_hoist_keeps_loadbearing_prefix () =
  let c =
    Compiler.compile_exn ~options:Variants.selected (parse (shift_src true))
  in
  let sir = sir_of "hoist" c in
  match find_block sir with
  | None -> fail "no block transfer in the vectorized shift"
  | Some (_, _, _, _, _, prefix_vars) ->
      check Alcotest.bool "the shift is pinned under the outer loop" true
        (List.mem "it" prefix_vars);
      check Alcotest.int
        "hoist keeps the prefix of a rewritten base" 0
        (Sir_opt.rewrites
           (Sir_opt.hoist ~nest:c.Compiler.decisions.Decisions.nest sir))

let test_hoist_drops_redundant_prefix () =
  let c =
    Compiler.compile_exn ~options:Variants.selected (parse (shift_src false))
  in
  let sir = sir_of "hoist" c in
  match find_block sir with
  | None -> fail "no block transfer in the vectorized shift"
  | Some (sid, op, data, dests, crossed, prefix_vars) ->
      (* a is never rewritten, so the emitter already hoisted the shift
         out of the it loop; hand-pin it back and let hoist prove the
         pin useless *)
      check Alcotest.bool "the emitter hoisted the shift fully" false
        (List.mem "it" prefix_vars);
      replace_comm sir sid op.Sir.uid
        {
          op with
          Sir.xfer =
            Sir.Block_xfer
              { data; dests; crossed; prefix_vars = "it" :: prefix_vars };
        };
      check Alcotest.int "hoist drops the planted prefix index" 1
        (Sir_opt.rewrites
           (Sir_opt.hoist ~nest:c.Compiler.decisions.Decisions.nest sir));
      let st =
        Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~sir c
      in
      check Alcotest.int "the hoisted schedule validates clean" 0
        (List.length (Spmd_interp.validate st))

(* An earlier, unrelated [k] loop writes nothing the shift reads, but
   the shift's own [k] loop rewrites [a]: the prefix index is judged by
   the innermost [k] loop enclosing the block, so hoist keeps it. *)
let shadowed_loop_src =
  {|
program hoistk
parameter n = 16
real a(16,16), b(16,16), c(16,16)
!hpf$ processors p(4)
!hpf$ distribute (*, block) onto p :: a, b, c
do k = 1, 2
  do j = 1, n
    do i = 1, n
      c(i, j) = c(i, j) + 1.0
    end do
  end do
end do
do k = 1, 3
  do j = 2, n
    do i = 1, n
      b(i, j) = a(i, j - 1)
    end do
  end do
  do j = 1, n
    do i = 1, n
      a(i, j) = a(i, j) + b(i, j)
    end do
  end do
end do
end program
|}

let test_hoist_judges_the_enclosing_loop () =
  let c = compiled_of "hoistk" (parse shadowed_loop_src) in
  let sir = sir_of "hoistk" c in
  (match find_block sir with
  | Some (_, _, _, _, _, prefix_vars) ->
      check Alcotest.bool "the shift ships once per k iteration" true
        (List.mem "k" prefix_vars)
  | None -> fail "no block transfer in the shift");
  check Alcotest.int "hoist dropped nothing" 0
    (Sir_opt.rewrites
       (List.filter
          (function Sir.W_hoist _ -> true | _ -> false)
          sir.Sir.opt_applied));
  let st = Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~sir c in
  check Alcotest.int "the optimized schedule validates clean" 0
    (List.length (Spmd_interp.validate st))

(* ---------------------- unit: combine ---------------------- *)

(* Duplicate a reduction's combine step (paper Figure 5, the sum
   reduction): the copy runs against an accumulator the original just
   combined (provably clean), so the pass must drop exactly the copy —
   and keep the reduction's wire transfer, which the surviving combine
   still needs. *)
let test_combine_drops_clean_duplicate () =
  let c =
    Compiler.compile_exn ~options:Variants.selected
      (Fig_examples.fig5 ~n:16 ~p1:2 ~p2:2 ())
  in
  let sir = sir_of "combine" c in
  let target =
    List.find_map
      (fun (ops : Sir.stmt_ops) ->
        if
          List.exists
            (function Sir.R_combine _ -> true | Sir.R_mark _ -> false)
            ops.Sir.red_steps
        then Some ops
        else None)
      (Sir.all_stmt_ops sir)
  in
  match target with
  | None -> fail "fig5 lowered no combine step"
  | Some ops ->
      let orig_steps = ops.Sir.red_steps in
      let orig_reduce_ops = (Sir.op_counts sir).Sir.reduce_ops in
      check Alcotest.bool "the program ships its reduction" true
        (orig_reduce_ops > 0);
      check Alcotest.int "the natural schedule has no clean combines" 0
        (Sir_opt.rewrites (Sir_opt.combine sir));
      let combines =
        List.filter
          (function Sir.R_combine _ -> true | Sir.R_mark _ -> false)
          orig_steps
      in
      Hashtbl.replace sir.Sir.stmts ops.Sir.sid
        { ops with Sir.red_steps = orig_steps @ combines };
      check Alcotest.int "combine drops exactly the clean duplicates"
        (List.length combines)
        (Sir_opt.rewrites (Sir_opt.combine sir));
      (match Hashtbl.find_opt sir.Sir.stmts ops.Sir.sid with
      | None -> fail "statement vanished"
      | Some ops' ->
          check Alcotest.int "the original combine sequence survives"
            (List.length orig_steps)
            (List.length ops'.Sir.red_steps));
      check Alcotest.int "the reduction transfer survives" orig_reduce_ops
        (Sir.op_counts sir).Sir.reduce_ops;
      let st =
        Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~sir c
      in
      check Alcotest.int "the deduplicated schedule validates clean" 0
        (List.length (Spmd_interp.validate st))

(* ---------------------- unit: the hooks ---------------------- *)

(* What [hoist] asks the nest: assignments under an IF and in a nested
   loop, the loop's own index and nested ones count; a write after the
   loop does not. *)
let test_written_in () =
  let prog =
    parse
      {|
program w
parameter n = 4
real a(4), b(4)
real x, y
do i = 1, n
  if (x > 0.0) then
    a(i) = x
  end if
  do j = 1, n
    b(j) = x
  end do
end do
x = 1.0
y = 2.0
end
|}
  in
  let nest = Nest.build prog in
  let li =
    match Nest.find_loop nest (List.hd prog.Ast.body).Ast.sid with
    | Some li -> li
    | None -> fail "no loop"
  in
  List.iter
    (fun (v, want) ->
      check Alcotest.bool
        (Fmt.str "%s %s written inside the i loop" v
           (if want then "is" else "is not"))
        want (Nest.written_in nest li v))
    [
      ("a", true); ("b", true); ("i", true); ("j", true); ("x", false);
      ("y", false); ("n", false);
    ]

let test_block_free_vars () =
  let owner =
    [|
      Sir.C_affine
        {
          fmt = Hpf_mapping.Dist.Block 8;
          nprocs = 4;
          stride = 1;
          offset = 0;
          dim_lo = 1;
          sub = Ast.Var "j";
        };
    |]
  in
  let data =
    Sir.X_elem { base = "a"; subs = [ Ast.Var "%m1"; Ast.Var "j" ]; owner }
  in
  let crossed =
    [
      {
        Sir.index = "%m1";
        lo = Ast.Var "k";
        hi = Ast.Int 8;
        step = Ast.Int 1;
      };
    ]
  in
  let free = Sir_opt.block_free_vars ~data ~dests:Sir.D_all ~crossed in
  check Alcotest.bool "crossed index is bound, not free" false
    (List.mem "%m1" free);
  check Alcotest.bool "subscript/owner variable is free" true
    (List.mem "j" free);
  check Alcotest.bool "crossed bound variable is free" true
    (List.mem "k" free)

let () =
  Alcotest.run "opt"
    [
      ( "properties",
        [
          Alcotest.test_case "pipeline twice is a fixpoint" `Quick
            test_pipeline_fixpoint;
          Alcotest.test_case "nothing removable survives" `Quick
            test_no_removable_transfers_survive;
          Alcotest.test_case "optimized crash@0 failover bit-identical"
            `Quick test_optimized_crash_failover;
          Alcotest.test_case "Msg.stats repeats across runs" `Quick
            test_msg_stats_repeatable;
          Alcotest.test_case "prepared dte/rte = fresh summarize loop" `Quick
            test_prepared_matches_fresh;
          Alcotest.test_case "rte one analysis = one-at-a-time loop" `Quick
            test_rte_matches_loop;
          Alcotest.test_case "rte keeps a transfer a deletion left dead"
            `Quick
            (test_rte_skips_newly_dead
               ( dead_after_rte_src,
                 [ 0; 1 ],
                 [ Sir.P_place [| Sir.C_fixed 0 |]; Sir.P_all ] ));
          Alcotest.test_case "... at an unreachable statement" `Quick
            (test_rte_skips_newly_dead
               ( dead_unreached_src,
                 [ 0; 2 ],
                 [ Sir.P_place [| Sir.C_fixed 0 |] ] ));
        ] );
      ( "oracle",
        List.map
          (fun (name, prog) ->
            Alcotest.test_case ("optimized delete-and-diff " ^ name) `Quick
              (test_oracle_on_optimized (name, prog)))
          benchmarks );
      ( "passes",
        [
          Alcotest.test_case "merge fuses adjacent elements" `Quick
            test_merge_fuses_adjacent_elements;
          Alcotest.test_case "hoist keeps load-bearing prefixes" `Quick
            test_hoist_keeps_loadbearing_prefix;
          Alcotest.test_case "hoist drops redundant prefixes" `Quick
            test_hoist_drops_redundant_prefix;
          Alcotest.test_case "hoist judges the enclosing loop" `Quick
            test_hoist_judges_the_enclosing_loop;
          Alcotest.test_case "combine drops clean duplicates" `Quick
            test_combine_drops_clean_duplicate;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "written_in" `Quick test_written_in;
          Alcotest.test_case "block_free_vars" `Quick test_block_free_vars;
        ] );
    ]
