(* The lowered SPMD IR (Phpf_ir.Sir) and its consumers.

   Four layers: (1) the one-program contract — the Sir executor runs the
   compiler's recorded lowering, pinned by traffic goldens in both
   transports, a corrupted schedule diverging identically in both, and
   the lowered guards checked against the decisions-level oracle at
   every statement instance; (2) strict-lowering diagnostics — corrupted
   compiler artifacts must produce the specific E0801-E0806 code; (3)
   the verifier's lowered-IR fidelity pass (E0610/E0611/W0605), forged
   optimizer witnesses included, and its recovery-plan audit (E0613)
   with the dominance it rests on; (4) fuel exhaustion. *)

open Hpf_lang
open Hpf_analysis
open Phpf_core
open Phpf_ir
open Phpf_verify
open Hpf_spmd
open Hpf_benchmarks

(* These suites pin down phpf's verbatim lowering: compile with the
   paper-faithful options (Sir optimizer off) unless a case opts in. *)
module Compiler = struct
  include Compiler

  let compile_exn ?grid_override ?(options = Variants.selected) p =
    compile_exn ?grid_override ~options p
end

let check = Alcotest.check
let fail = Alcotest.fail

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

(* ---------------- one program, two transports ---------------- *)

type observed = {
  mismatches : string list;
  transfers : int;
  net : Msg.stats;
}

let run_sir ?sir ~aggregate c : observed =
  let st =
    Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~aggregate ?sir c
  in
  {
    mismatches =
      List.map (Fmt.str "%a" Spmd_interp.pp_mismatch) (Spmd_interp.validate st);
    transfers = st.Spmd_interp.transfers;
    net = Spmd_interp.comm_stats st;
  }

(* (transfers, packets, blocks, elems, bytes) of the fault-free run, per
   benchmark and transport.  The per-element transport ships the same
   elements as the aggregated one, one packet each. *)
let goldens =
  [
    ("fig1", true, (9, 9, 0, 9, 360));
    ("fig1", false, (9, 9, 0, 9, 360));
    ("fig2", true, (62, 26, 12, 62, 1328));
    ("fig2", false, (62, 62, 0, 62, 2480));
    ("fig7", true, (0, 0, 0, 0, 0));
    ("fig7", false, (0, 0, 0, 0, 0));
    ("tomcatv", true, (576, 48, 48, 576, 6144));
    ("tomcatv", false, (576, 576, 0, 576, 23040));
    ("dgefa", true, (660, 282, 29, 660, 14304));
    ("dgefa", false, (660, 660, 0, 660, 26400));
    ("appsp2d", true, (144, 12, 12, 144, 1536));
    ("appsp2d", false, (144, 144, 0, 144, 5760));
    ("appsp1d", true, (252, 5, 5, 252, 2176));
    ("appsp1d", false, (252, 252, 0, 252, 10080));
  ]

let test_traffic_goldens () =
  List.iter
    (fun (name, aggregate, (transfers, packets, blocks, elems, bytes)) ->
      let c = Compiler.compile_exn ((List.assoc name benchmarks) ()) in
      let o = run_sir ~aggregate c in
      let label what = Fmt.str "%s/aggregate=%b: %s" name aggregate what in
      check (Alcotest.list Alcotest.string) (label "validates") []
        o.mismatches;
      check Alcotest.int (label "element transfers") transfers o.transfers;
      check Alcotest.int (label "packets") packets o.net.Msg.packets;
      check Alcotest.int (label "blocks") blocks o.net.Msg.blocks;
      check Alcotest.int (label "elems") elems o.net.Msg.elems;
      check Alcotest.int (label "bytes") bytes o.net.Msg.bytes)
    goldens

(* A comm knocked out post-compile runs through a fresh lowering of the
   broken schedule: both transports must run it to validation and
   report the same divergence. *)
let test_corrupted_schedule () =
  let c = Compiler.compile_exn (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  check Alcotest.bool "fig1 has comms" true (c.Compiler.comms <> []);
  let broken = { c with Compiler.comms = [] } in
  let sir = Oracles.relower broken in
  let agg = run_sir ~sir ~aggregate:true broken in
  let one = run_sir ~sir ~aggregate:false broken in
  check Alcotest.bool "diverges without comms" true (agg.mismatches <> []);
  check (Alcotest.list Alcotest.string) "identical divergence"
    agg.mismatches one.mismatches

(* The lowered guards agree with the run-time chase of the decisions at
   every statement instance: each instance's recorded computes
   predicate, compiled by [Concrete.pred], selects exactly the
   processors the enumerative oracle derives from the decisions — for
   assignments and control statements alike.  The oracle shares no code
   with the lowering. *)
let test_executing_set_oracle () =
  let control = ref 0 in
  List.iter
    (fun (name, mk) ->
      let c = Compiler.compile_exn (mk ()) in
      let d = c.Compiler.decisions in
      let sir = Compiler.sir_exn c in
      let instances = ref 0 in
      let guards = Hashtbl.create 64 in
      let on_stmt (s : Ast.stmt) (m : Memory.t) =
        incr instances;
        let computes =
          match Sir.stmt_ops sir s.Ast.sid with
          | Some { Sir.exec = Sir.Guarded_assign { computes; _ }; _ } ->
              computes
          | Some { Sir.exec = Sir.Control { computes }; _ } ->
              incr control;
              computes
          | Some { Sir.exec = Sir.Loop_head _; _ } -> Sir.P_all
          | None -> fail (Fmt.str "%s: s%d was not lowered" name s.Ast.sid)
        in
        let expected = Oracles.executing_pids d m s in
        let guard =
          match Hashtbl.find_opt guards s.Ast.sid with
          | Some g -> g
          | None ->
              let g =
                Concrete.pred (Memory.layout_of m) sir.Sir.grid computes
              in
              Hashtbl.replace guards s.Ast.sid g;
              g
        in
        let got = Hpf_mapping.Pid_set.to_list (guard m) in
        if got <> expected then
          fail
            (Fmt.str "%s: s%d executes on [%a], oracle says [%a]" name
               s.Ast.sid
               Fmt.(list ~sep:comma int)
               got
               Fmt.(list ~sep:comma int)
               expected)
      in
      let config =
        { Seq_interp.fuel = Seq_interp.default_fuel; on_stmt = Some on_stmt }
      in
      ignore
        (Seq_interp.run ~config ~init:(Init.init c.Compiler.prog)
           c.Compiler.prog);
      if !instances = 0 then fail (name ^ ": no statement instance ran"))
    benchmarks;
  if !control = 0 then fail "no control statement instance was checked"

(* ---------------- strict lowering diagnostics ---------------- *)

let lower_codes ?(mutate = fun c -> c) prog =
  let c = mutate (Compiler.compile_exn prog) in
  match
    Lower_spmd.lower ~strict:true ~prog:c.Compiler.prog
      ~decisions:c.Compiler.decisions ~comms:c.Compiler.comms ()
  with
  | exception Diag.Fatal ds -> List.map (fun (d : Diag.t) -> d.Diag.code) ds
  | _ -> []

let has c l = List.mem c l

let test_e0801_cyclic_alignment () =
  let c = Compiler.compile_exn (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  let d = c.Compiler.decisions in
  let aligned =
    List.find_map
      (fun (def, m) ->
        match m with
        | Decisions.Priv_aligned { target; level } ->
            Some (def, target, level)
        | _ -> None)
      (Decisions.scalar_mappings d)
  in
  match aligned with
  | None -> fail "fig1 should have an aligned scalar"
  | Some (def, target, level) ->
      (* Align the scalar with itself, anchored at a statement where the
         corrupted mapping is actually visible to a use-site lookup, and
         route a comm through the scalar so the lowerer must chase the
         chain: every hop revisits the same mapping, so strict lowering
         has to cut the cycle. *)
      let s_var = Ssa.def_var d.Decisions.ssa def in
      let corrupt sid =
        let self = { Aref.base = s_var; Aref.subs = []; Aref.sid } in
        List.iter
          (fun df ->
            Decisions.unsafe_set_scalar_mapping d df
              (Decisions.Priv_aligned { target = self; level }))
          (Ssa.defs_of_var d.Decisions.ssa s_var);
        self
      in
      let _ = corrupt target.Aref.sid in
      let sid_use = ref None in
      Ast.iter_program
        (fun st ->
          if !sid_use = None then
            match
              try
                Some (Decisions.scalar_mapping_of_use d ~sid:st.Ast.sid
                        ~var:s_var)
              with _ -> None
            with
            | Some (Decisions.Priv_aligned { target = t; _ })
              when t.Aref.base = s_var ->
                sid_use := Some st.Ast.sid
            | _ -> ())
        c.Compiler.prog;
      (match !sid_use with
      | None -> fail "corrupted mapping should reach some use site"
      | Some sidu ->
          let self = corrupt sidu in
          let ghost_comms =
            match c.Compiler.comms with
            | cm :: _ ->
                { cm with Hpf_comm.Comm.data = self } :: c.Compiler.comms
            | [] -> fail "fig1 should have comms"
          in
          let codes =
            lower_codes
              ~mutate:(fun _ -> { c with Compiler.comms = ghost_comms })
              c.Compiler.prog
          in
          check Alcotest.bool "cyclic chain is E0801" true
            (has "E0801" codes))

let test_e0802_dangling_comm () =
  let codes =
    lower_codes
      ~mutate:(fun c ->
        match c.Compiler.comms with
        | [] -> fail "fig1 should have comms"
        | cm :: _ ->
            let ghost =
              {
                cm with
                Hpf_comm.Comm.data =
                  { cm.Hpf_comm.Comm.data with Aref.sid = 9999 };
              }
            in
            { c with Compiler.comms = ghost :: c.Compiler.comms })
      (Fig_examples.fig1 ~n:40 ~p:4 ())
  in
  check Alcotest.bool "dangling comm is E0802" true (has "E0802" codes)

let test_e0803_bad_placement () =
  let codes =
    lower_codes
      ~mutate:(fun c ->
        match c.Compiler.comms with
        | [] -> fail "fig1 should have comms"
        | cm :: tl ->
            let sunk = { cm with Hpf_comm.Comm.placement_level = 99 } in
            { c with Compiler.comms = sunk :: tl })
      (Fig_examples.fig1 ~n:40 ~p:4 ())
  in
  check Alcotest.bool "impossible placement level is E0803" true
    (has "E0803" codes)

let test_e0804_undeclared_array () =
  let codes =
    lower_codes
      ~mutate:(fun c ->
        let arr =
          List.find_opt
            (fun (cm : Hpf_comm.Comm.t) ->
              cm.Hpf_comm.Comm.data.Aref.subs <> [])
            c.Compiler.comms
        in
        match arr with
        | None -> fail "fig1 should have an array comm"
        | Some cm ->
            let ghost =
              {
                cm with
                Hpf_comm.Comm.data =
                  { cm.Hpf_comm.Comm.data with Aref.base = "nosuch" };
              }
            in
            { c with Compiler.comms = ghost :: c.Compiler.comms })
      (Fig_examples.fig1 ~n:40 ~p:4 ())
  in
  check Alcotest.bool "undeclared subscripted base is E0804" true
    (has "E0804" codes)

let test_e0805_reduction_missing_stmt () =
  let codes =
    lower_codes
      ~mutate:(fun c ->
        let d = c.Compiler.decisions in
        if d.Decisions.reductions = [] then
          fail "dgefa should have a reduction";
        (* the E0805 check only runs for reductions that are replicated
           across grid dimensions, so force a (valid) non-empty
           replication set before dangling the accumulating statement *)
        List.iter
          (fun (red : Reduction.red) ->
            List.iter
              (fun df ->
                match Decisions.scalar_mapping_of_def d df with
                | Decisions.Priv_reduction { target; level; _ } ->
                    Decisions.unsafe_set_scalar_mapping d df
                      (Decisions.Priv_reduction
                         { target; repl_grid_dims = [ 0 ]; level })
                | _ -> ())
              (Ssa.defs_of_var d.Decisions.ssa red.Reduction.var))
          d.Decisions.reductions;
        let broken =
          {
            d with
            Decisions.reductions =
              List.map
                (fun (red : Reduction.red) ->
                  { red with Reduction.stmt_sid = 9999 })
                d.Decisions.reductions;
          }
        in
        { c with Compiler.decisions = broken })
      (Dgefa.program ~n:12 ~p:4)
  in
  check Alcotest.bool "reduction at a missing statement is E0805" true
    (has "E0805" codes)

let test_e0806_bad_grid_dim () =
  let codes =
    lower_codes
      ~mutate:(fun c ->
        let d = c.Compiler.decisions in
        let red =
          List.find_map
            (fun (def, m) ->
              match m with
              | Decisions.Priv_reduction { target; level; _ } ->
                  Some (def, target, level)
              | _ -> None)
            (Decisions.scalar_mappings d)
        in
        (match red with
        | None -> fail "dgefa should have a reduction mapping"
        | Some (def, target, level) ->
            Decisions.unsafe_set_scalar_mapping d def
              (Decisions.Priv_reduction
                 { target; repl_grid_dims = [ 7 ]; level }));
        c)
      (Dgefa.program ~n:12 ~p:4)
  in
  check Alcotest.bool "out-of-range grid dimension is E0806" true
    (has "E0806" codes)

(* permissive lowering (the fidelity audit's mode) must swallow the same
   corruptions silently *)
let test_permissive_swallows () =
  let c = Compiler.compile_exn (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  let ghost =
    match c.Compiler.comms with
    | cm :: _ ->
        {
          cm with
          Hpf_comm.Comm.data = { cm.Hpf_comm.Comm.data with Aref.sid = 9999 };
        }
    | [] -> fail "fig1 should have comms"
  in
  let sir =
    Lower_spmd.lower ~prog:c.Compiler.prog ~decisions:c.Compiler.decisions
      ~comms:(ghost :: c.Compiler.comms) ()
  in
  (* the ghost op is dropped, the rest lowers *)
  check Alcotest.bool "program still lowers" true
    (Sir.total_ops (Sir.op_counts sir) > 0)

(* ---------------- verifier fidelity pass ---------------- *)

let verify_exn c =
  match Verifier.verify c with
  | Ok (findings, _) -> findings
  | Error ds -> fail (Fmt.str "verifier crashed: %a" Diag.pp_list ds)

let codes_of ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds

let test_e0610_missing_op () =
  let c = Compiler.compile_exn (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  let sir = Compiler.sir_exn c in
  let stmts = Hashtbl.copy sir.Sir.stmts in
  let gutted = ref false in
  Hashtbl.iter
    (fun sid (ops : Sir.stmt_ops) ->
      if (not !gutted) && ops.Sir.comms <> [] then begin
        gutted := true;
        Hashtbl.replace stmts sid { ops with Sir.comms = [] }
      end)
    sir.Sir.stmts;
  check Alcotest.bool "found an op to remove" true !gutted;
  let broken = { c with Compiler.sir = Some { sir with Sir.stmts } } in
  let errs = Verifier.errors (verify_exn broken) in
  check Alcotest.bool "missing lowered op is E0610" true
    (List.mem "E0610" (codes_of errs))

let test_w0605_extra_op () =
  let c = Compiler.compile_exn (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  (* drop a comm from the schedule but keep the recorded lowering: the
     recorded IR now carries an op the decisions no longer require *)
  let broken =
    match c.Compiler.comms with
    | [] -> fail "fig1 should have comms"
    | _ :: tl -> { c with Compiler.comms = tl }
  in
  let findings = verify_exn broken in
  check Alcotest.bool "extra lowered op is W0605" true
    (List.mem "W0605" (codes_of findings))

let test_e0611_mutated_allocs () =
  let c = Compiler.compile_exn (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  let sir = Compiler.sir_exn c in
  check Alcotest.bool "fig1 has lowered allocs" true (sir.Sir.allocs <> []);
  let broken = { c with Compiler.sir = Some { sir with Sir.allocs = [] } } in
  let errs = Verifier.errors (verify_exn broken) in
  check Alcotest.bool "mutated storage decisions are E0611" true
    (List.mem "E0611" (codes_of errs));
  (* the guard recorded on fig7's IF (privatized control flow) is
     audited like an assignment's *)
  let c = Compiler.compile_exn (Fig_examples.fig7 ~n:24 ~p:4 ()) in
  let sir = Compiler.sir_exn c in
  let stmts = Hashtbl.copy sir.Sir.stmts in
  (match
     List.find_opt
       (fun (ops : Sir.stmt_ops) ->
         match (Ast.find_stmt c.Compiler.prog ops.Sir.sid, ops.Sir.exec) with
         | Some { Ast.node = Ast.If _; _ }, Sir.Control { computes } ->
             computes <> Sir.P_all
         | _ -> false)
       (Sir.all_stmt_ops sir)
   with
  | Some ops ->
      Hashtbl.replace stmts ops.Sir.sid
        { ops with Sir.exec = Sir.Control { computes = Sir.P_all } }
  | None -> fail "fig7 should record a partitioned IF guard");
  let broken = { c with Compiler.sir = Some { sir with Sir.stmts } } in
  let errs = Verifier.errors (verify_exn broken) in
  check Alcotest.bool "a replaced IF guard is E0611" true
    (List.mem "E0611" (codes_of errs))

let test_clean_artifacts_pass_fidelity () =
  List.iter
    (fun (name, mk) ->
      let c = Compiler.compile_exn (mk ()) in
      let bad =
        List.filter
          (fun code -> code = "E0610" || code = "E0611" || code = "W0605")
          (codes_of (verify_exn c))
      in
      if bad <> [] then
        fail (Fmt.str "%s: fidelity findings on a clean artifact" name))
    benchmarks

(* ---------------- optimizer witnesses ---------------- *)

let examples_dir =
  List.find Sys.file_exists [ "../examples/programs"; "examples/programs" ]

let example name =
  Sema.check
    (Parser.parse_string
       (In_channel.with_open_bin
          (Filename.concat examples_dir (name ^ ".hpfk"))
          In_channel.input_all))

let optimized prog =
  Compiler.compile_exn ~options:Decisions.default_options prog

(* The record of [c] with its first scheduled transfer deleted, and
   [witness] (if any) recorded for the deletion. *)
let forge_deletion (c : Compiler.compiled)
    (witness : (Sir.comm_op -> Sir.witness) option) : Compiler.compiled =
  let sir = Compiler.sir_exn c in
  let op =
    match
      List.filter
        (fun (o : Sir.comm_op) ->
          match o.Sir.xfer with Sir.Reduce_xfer -> false | _ -> true)
        (Sir.schedule sir)
    with
    | op :: _ -> op
    | [] -> fail "no scheduled transfer"
  in
  let stmts = Hashtbl.copy sir.Sir.stmts in
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
    stmts;
  let forged = Option.to_list (Option.map (fun w -> w op) witness) in
  {
    c with
    Compiler.sir =
      Some { sir with Sir.stmts; opt_applied = sir.Sir.opt_applied @ forged };
  }

(* verify-sir checks each deletion against the evidence it records, not
   against a re-run of the optimizer: a forged witness fails on its
   own, before verify-flow's stale-read audit. *)
let test_forged_witnesses () =
  List.iter
    (fun name ->
      let c = optimized (example name) in
      check
        Alcotest.(list string)
        (name ^ ": the optimized record passes verify-sir")
        [] (codes_of (Sir_check.check c));
      let e0610 what forged =
        check Alcotest.bool
          (Fmt.str "%s: %s is E0610" name what)
          true
          (List.mem "E0610" (codes_of (Sir_check.check forged)))
      in
      e0610 "a needed transfer deleted as redundant"
        (forge_deletion c
           (Some
              (fun op ->
                Sir.W_redundant { uid = op.Sir.uid; covers = [ Sir.F_init ] })));
      e0610 "a live transfer deleted as dead"
        (forge_deletion c (Some (fun op -> Sir.W_dead { uid = op.Sir.uid })));
      (* the diff key holds the reference's subscripts, so stencil's
         first shift is told apart from the opposite shift *)
      e0610 "a deletion without a witness" (forge_deletion c None);
      let sir = Compiler.sir_exn c in
      e0610 "a witness naming no op"
        {
          c with
          Compiler.sir =
            Some
              {
                sir with
                Sir.opt_applied =
                  sir.Sir.opt_applied @ [ Sir.W_dead { uid = max_int } ];
              };
        })
    [ "fig1"; "stencil"; "tomcatv" ]

(* ---------------- recovery-plan audit ---------------- *)

let with_plan (c : Compiler.compiled) (plan : Sir.recovery_plan) =
  let sir = Compiler.sir_exn c in
  { c with Compiler.sir = Some { sir with Sir.recovery = Some plan } }

let test_e0613_corrupt_plans () =
  let c = Compiler.compile_exn (Fig_examples.fig7 ~n:24 ~p:4 ()) in
  let prog = c.Compiler.prog in
  let guarded =
    match
      List.find_map
        (fun (s : Ast.stmt) ->
          match s.Ast.node with
          | Ast.If (_, t :: _, _) -> Some t.Ast.sid
          | _ -> None)
        (Ast.all_stmts prog)
    with
    | Some sid -> sid
    | None -> fail "fig7 should have a statement under an IF"
  in
  let top = (List.hd prog.Ast.body).Ast.sid in
  let datum = (List.hd prog.Ast.decls).Ast.dname in
  let reexec ?(producers = fun r -> [ r ]) region =
    {
      Sir.datum;
      from_region = None;
      source =
        Sir.R_reexec { producers = producers region; region; guard = Sir.P_all };
    }
  in
  let plan entries = { Sir.entries; checkpoints_needed = false } in
  let findings p = codes_of (Plan_check.check (with_plan c p)) in
  check
    Alcotest.(list string)
    "a top-level region dominates the exit" []
    (findings (plan [ reexec top ]));
  List.iter
    (fun (what, p) ->
      check Alcotest.bool (what ^ " is E0613") true
        (List.mem "E0613" (findings p)))
    [
      ( "a re-execution region under an IF in a checkpoint-free plan",
        plan [ reexec guarded ] );
      ( "a checkpoint entry in a checkpoint-free plan",
        plan [ { Sir.datum; from_region = None; source = Sir.R_checkpoint } ]
      );
      ( "a nonexistent producer",
        plan [ reexec ~producers:(fun _ -> [ 99999 ]) top ] );
      ("a nonexistent region", plan [ reexec 99999 ]);
    ]

(* The audit's immediate dominators against the full dominance matrix
   ([Oracles.dominators]): for every node of every program's lowered
   graph, does it dominate the exit?  (The whole relation on the
   smaller graphs.) *)
let test_dominance_matches_matrix () =
  let programs =
    List.map (fun (n, mk) -> (n, mk ())) benchmarks
    @ List.map
        (fun n -> (n, example n))
        [
          "appsp1d"; "appsp2d"; "dgefa"; "fig1"; "fig2"; "fig7"; "reduction";
          "stencil"; "tomcatv"; "workspace";
        ]
    @ List.map
        (fun k ->
          ( Fmt.str "tomcatv_x%d" k,
            Prog_gen.compose k (Tomcatv.program ~n:66 ~niter:1 ~p:4) ))
        [ 2; 4; 8 ]
    @ List.mapi
        (fun i p -> (Fmt.str "generated %d" i, p))
        (QCheck2.Gen.generate ~rand:(Random.State.make [| 19 |]) ~n:40
           Prog_gen.gen_checked_program)
  in
  let compared = ref 0 in
  List.iter
    (fun (name, prog) ->
      let cfg = Sir_cfg.build (Compiler.sir_exn (optimized prog)) in
      let n = Sir_cfg.n_nodes cfg and exit_ = cfg.Sir_cfg.exit_ in
      let matrix = Oracles.dominators cfg in
      let idom, rpo_index =
        Dom.immediate ~n ~entry:cfg.Sir_cfg.entry ~preds:(Sir_cfg.preds cfg)
          ~rpo:(Sir_cfg.reverse_postorder cfg)
      in
      let agree a b =
        incr compared;
        if matrix.(b).(a) <> Dom.idom_dominates idom a b then
          fail
            (Fmt.str "%s: node %d dominates node %d: matrix %b, CHK %b" name a
               b matrix.(b).(a) (not matrix.(b).(a)))
      in
      for a = 0 to n - 1 do
        agree a exit_;
        if n <= 400 then
          for b = 0 to n - 1 do
            if rpo_index.(b) >= 0 then agree a b
          done
      done)
    programs;
  check Alcotest.bool
    (Fmt.str "compared %d pairs" !compared)
    true (!compared > 10_000)

(* ---------------- fuel ---------------- *)

let test_fuel_exhausted () =
  let prog = Tomcatv.program ~n:14 ~niter:2 ~p:4 in
  let c = Compiler.compile_exn prog in
  match Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~fuel:50 c with
  | exception Seq_interp.Fuel_exhausted { budget; _ } ->
      check Alcotest.int "budget reported" 50 budget
  | _ -> fail "lowered executor must run out of fuel"

let () =
  Alcotest.run "sir"
    [
      ( "differential",
        [
          Alcotest.test_case "identical divergence on corrupted schedules"
            `Quick test_corrupted_schedule;
        ] );
      ( "one-program",
        [
          Alcotest.test_case "traffic goldens in both transports" `Quick
            test_traffic_goldens;
          Alcotest.test_case "executing_set == enumerative oracle" `Quick
            test_executing_set_oracle;
        ] );
      ( "strict-lowering",
        [
          Alcotest.test_case "E0801 cyclic alignment chain" `Quick
            test_e0801_cyclic_alignment;
          Alcotest.test_case "E0802 dangling comm" `Quick
            test_e0802_dangling_comm;
          Alcotest.test_case "E0803 bad placement level" `Quick
            test_e0803_bad_placement;
          Alcotest.test_case "E0804 undeclared array" `Quick
            test_e0804_undeclared_array;
          Alcotest.test_case "E0805 reduction at missing stmt" `Quick
            test_e0805_reduction_missing_stmt;
          Alcotest.test_case "E0806 grid dim out of range" `Quick
            test_e0806_bad_grid_dim;
          Alcotest.test_case "permissive mode swallows corruption" `Quick
            test_permissive_swallows;
        ] );
      ( "fidelity",
        [
          Alcotest.test_case "E0610 missing lowered op" `Quick
            test_e0610_missing_op;
          Alcotest.test_case "W0605 extra lowered op" `Quick
            test_w0605_extra_op;
          Alcotest.test_case "E0611 mutated storage decisions" `Quick
            test_e0611_mutated_allocs;
          Alcotest.test_case "clean artifacts have no fidelity findings"
            `Quick test_clean_artifacts_pass_fidelity;
          Alcotest.test_case "E0610 forged optimizer witnesses" `Quick
            test_forged_witnesses;
        ] );
      ( "plan",
        [
          Alcotest.test_case "E0613 corrupt recovery plans" `Quick
            test_e0613_corrupt_plans;
          Alcotest.test_case "CHK dominance = dominance matrix" `Quick
            test_dominance_matches_matrix;
        ] );
      ( "fuel-and-sim",
        [
          Alcotest.test_case "fuel exhaustion raises located exception"
            `Quick test_fuel_exhausted;
        ] );
    ]
