(* The verify-flow dataflow pass (Sir_cfg + Flow + Sir_flow).

   Four layers: (1) unit tests of the CFG builder and the generic
   fixpoint engine; (2) unit tests of the syntactic coverage lattice;
   (3) corruption tests — a lowered program is damaged in a specific
   way and the pass must produce the specific W0606/W0607/W0608/E0612
   code; (4) the delete-and-diff oracle — on every benchmark, every
   transfer the analysis marks removable (dead or redundant) must be
   mechanically deletable from the recorded Sir with an unchanged
   validation verdict, and deleting any other transfer must trip E0612
   in the re-run analysis. *)

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

(* The dataflow suite audits phpf's verbatim schedule (the optimizer
   would delete the very transfers the oracle exercises): compile with
   the paper-faithful options. *)
let compiled_of name prog =
  match Compiler.compile ~options:Variants.selected prog with
  | Ok c -> c
  | Error ds -> fail (Fmt.str "%s does not compile: %a" name Diag.pp_list ds)

let sir_of name (c : Compiler.compiled) =
  match c.Compiler.sir with
  | Some s -> s
  | None -> fail (Fmt.str "%s carries no lowered program" name)

let analysis_of name c =
  match Sir_flow.analyze c with
  | Some a -> a
  | None -> fail (Fmt.str "%s: no analysis (missing sir)" name)

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds
let has_code c ds = List.mem c (codes ds)

(* ---------------- Sir mutation helpers ---------------- *)

(* A fresh program sharing everything but the statement table, with one
   comm op deleted. *)
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
              List.filter (fun (o : Sir.comm_op) -> o.Sir.uid <> uid)
                ops.Sir.comms;
          })
    sir.Sir.stmts;
  { sir with Sir.stmts = stmts }

let rewrite_ops (sir : Sir.program) (sid : Ast.stmt_id)
    (f : Sir.stmt_ops -> Sir.stmt_ops) : Sir.program =
  let stmts = Hashtbl.copy sir.Sir.stmts in
  (match Hashtbl.find_opt stmts sid with
  | Some ops -> Hashtbl.replace stmts sid (f ops)
  | None -> fail (Fmt.str "no stmt_ops for s%d" sid));
  { sir with Sir.stmts = stmts }

let with_sir (c : Compiler.compiled) sir = { c with Compiler.sir = Some sir }

let max_uid (sir : Sir.program) =
  List.fold_left
    (fun m (ops : Sir.stmt_ops) ->
      List.fold_left
        (fun m (o : Sir.comm_op) -> max m o.Sir.uid)
        m ops.Sir.comms)
    0
    (Sir.all_stmt_ops sir)

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

let validate_with name (c : Compiler.compiled) (sir : Sir.program) :
    Spmd_interp.mismatch list =
  let init = Init.init c.Compiler.prog in
  match Spmd_interp.run ~init ~sir c with
  | st -> Spmd_interp.validate st
  | exception e ->
      fail (Fmt.str "%s: executor crashed: %s" name (Printexc.to_string e))

(* ---------------- CFG builder ---------------- *)

let test_cfg_structure () =
  List.iter
    (fun (name, prog) ->
      let c = compiled_of name (prog ()) in
      let sir = sir_of name c in
      let g = Sir_cfg.build sir in
      let rpo = Sir_cfg.reverse_postorder g in
      check Alcotest.bool
        (name ^ ": reverse postorder starts at entry")
        true
        (match rpo with i :: _ -> i = g.Sir_cfg.entry | [] -> false);
      check Alcotest.bool
        (name ^ ": exit reachable")
        true
        (List.mem g.Sir_cfg.exit_ rpo);
      (* every statement with lowered ops owns exactly one instance
         node, so a path through the graph fires each op set once *)
      Hashtbl.iter
        (fun sid (_ : Sir.stmt_ops) ->
          let instances =
            List.filter
              (fun i -> Sir_cfg.ops_at g i <> None)
              (Sir_cfg.nodes_of_sid g sid)
          in
          check Alcotest.int
            (Fmt.str "%s: s%d has one instance node" name sid)
            1 (List.length instances))
        sir.Sir.stmts;
      (* edges are symmetric *)
      Array.iter
        (fun (n : Sir_cfg.node) ->
          List.iter
            (fun s ->
              check Alcotest.bool
                (Fmt.str "%s: edge %d->%d is in preds" name n.Sir_cfg.id s)
                true
                (List.mem n.Sir_cfg.id (Sir_cfg.preds g s)))
            n.Sir_cfg.succs)
        g.Sir_cfg.nodes)
    benchmarks

let test_cfg_loop_shape () =
  let c = compiled_of "tomcatv" (Tomcatv.program ~n:14 ~niter:2 ~p:4) in
  let g = Sir_cfg.build (sir_of "tomcatv" c) in
  let heads =
    Array.to_list g.Sir_cfg.nodes
    |> List.filter (fun (n : Sir_cfg.node) ->
           match n.Sir_cfg.kind with Sir_cfg.Loop_head _ -> true | _ -> false)
  in
  check Alcotest.int "tomcatv has 5 loop heads" 5 (List.length heads);
  List.iter
    (fun (n : Sir_cfg.node) ->
      check Alcotest.int
        (Fmt.str "loop head b%d joins init and step" n.Sir_cfg.id)
        2
        (List.length n.Sir_cfg.preds);
      check Alcotest.int
        (Fmt.str "loop head b%d branches to body and exit" n.Sir_cfg.id)
        2
        (List.length n.Sir_cfg.succs))
    heads;
  (* the loop index is (re)defined exactly at init and step nodes *)
  let defs =
    Array.to_list g.Sir_cfg.nodes
    |> List.filter_map (fun (n : Sir_cfg.node) ->
           Sir_cfg.index_defined_at g n.Sir_cfg.id)
  in
  check Alcotest.int "5 loops define indices at init and step" 10
    (List.length defs)

(* ---------------- the fixpoint engine ---------------- *)

module Reach = struct
  type t = bool

  let equal = Bool.equal
  let join = ( || )
end

module Reach_engine = Flow.Make (Reach)

let test_engine_reachability () =
  let c = compiled_of "fig7" (Fig_examples.fig7 ~n:24 ~p:4 ()) in
  let g = Sir_cfg.build (sir_of "fig7" c) in
  let fwd =
    Reach_engine.fixpoint ~cfg:g ~direction:Flow.Forward ~boundary:true
      ~init:false
      ~transfer:(fun _ s -> s)
  in
  let bwd =
    Reach_engine.fixpoint ~cfg:g ~direction:Flow.Backward ~boundary:true
      ~init:false
      ~transfer:(fun _ s -> s)
  in
  let rpo = Sir_cfg.reverse_postorder g in
  List.iter
    (fun i ->
      check Alcotest.bool
        (Fmt.str "b%d reachable from entry" i)
        true fwd.Flow.output.(i))
    rpo;
  check Alcotest.bool "exit reaches entry backward" true
    bwd.Flow.output.(g.Sir_cfg.entry);
  check Alcotest.bool "fixpoint did some work" true (fwd.Flow.iterations > 0)

(* A loop must apply its body transfer more than once before the states
   stabilize: gen a fact inside the loop and watch the head's MUST
   intersection converge. *)
let test_engine_loop_convergence () =
  let c = compiled_of "fig7" (Fig_examples.fig7 ~n:24 ~p:4 ()) in
  let a = analysis_of "fig7" c in
  check Alcotest.bool "loop fixpoint needs > |nodes| transfers" true
    (a.Sir_flow.avail.Flow.iterations > Sir_cfg.n_nodes a.Sir_flow.cfg)

(* ---------------- the coverage lattice ---------------- *)

let test_coverage () =
  let i_var = Ast.Var "i" in
  let aff sub =
    Sir.C_affine
      {
        fmt = Hpf_mapping.Dist.Block 6;
        nprocs = 4;
        stride = 1;
        offset = 0;
        dim_lo = 1;
        sub;
      }
  in
  check Alcotest.bool "C_all covers anything" true
    (Sir_flow.coord_covers ~have:Sir.C_all ~need:(aff i_var));
  check Alcotest.bool "equal affine coords cover" true
    (Sir_flow.coord_covers ~have:(aff i_var) ~need:(aff i_var));
  check Alcotest.bool "different subscripts do not cover" false
    (Sir_flow.coord_covers ~have:(aff i_var) ~need:(aff (Ast.Int 3)));
  check Alcotest.bool "affine does not cover C_all" false
    (Sir_flow.coord_covers ~have:(aff i_var) ~need:Sir.C_all);
  (* a one-processor dimension pins every coordinate to 0 *)
  let one =
    Sir.C_affine
      {
        fmt = Hpf_mapping.Dist.Block 16;
        nprocs = 1;
        stride = 1;
        offset = 0;
        dim_lo = 1;
        sub = i_var;
      }
  in
  check Alcotest.bool "degenerate affine covers fixed 0" true
    (Sir_flow.coord_covers ~have:one ~need:(Sir.C_fixed 0));
  check Alcotest.bool "fixed 0 covers degenerate affine" true
    (Sir_flow.coord_covers ~have:(Sir.C_fixed 0) ~need:one);
  let all_place = [| Sir.C_all; Sir.C_all |] in
  let p1 = [| Sir.C_fixed 1; Sir.C_all |] in
  check Alcotest.bool "all place is P_all" true
    (Sir_flow.pred_is_all (Sir.P_place all_place));
  check Alcotest.bool "union is never trivially all" false
    (Sir_flow.pred_is_all (Sir.P_union [ all_place ]));
  check Alcotest.bool "union-of-have covers member-wise" true
    (Sir_flow.pred_covers
       ~have:(Sir.P_union [ p1; all_place ])
       ~need:(Sir.P_place p1));
  check Alcotest.bool "union-of-need requires structural equality" false
    (Sir_flow.pred_covers ~have:(Sir.P_place p1)
       ~need:(Sir.P_union [ p1; p1 ]));
  check Alcotest.bool "D_all covers any pred" true
    (Sir_flow.dests_covers ~have:Sir.D_all ~need:(Sir.D_pred (Sir.P_place p1)));
  check Alcotest.bool "a place does not cover D_all" false
    (Sir_flow.dests_covers ~have:(Sir.D_pred (Sir.P_place p1)) ~need:Sir.D_all);
  check Alcotest.bool "an all-place covers D_all" true
    (Sir_flow.dests_covers
       ~have:(Sir.D_pred (Sir.P_place all_place))
       ~need:Sir.D_all);
  check Alcotest.bool "whole-array key covers its elements" true
    (Sir_flow.key_covers ~have:(Sir_flow.K_whole "a")
       ~need:(Sir_flow.K_elem ("a", [ i_var ])));
  check Alcotest.bool "element key does not cover the whole array" false
    (Sir_flow.key_covers
       ~have:(Sir_flow.K_elem ("a", [ i_var ]))
       ~need:(Sir_flow.K_whole "a"))

(* ---------------- clean programs ---------------- *)

let test_clean_programs_no_stale () =
  List.iter
    (fun (name, prog) ->
      let c = compiled_of name (prog ()) in
      let a = analysis_of name c in
      check Alcotest.int
        (name ^ ": no stale reads in a clean compile")
        0
        (List.length a.Sir_flow.stale);
      check Alcotest.bool
        (name ^ ": no error findings")
        false
        (List.exists Diag.is_error a.Sir_flow.findings))
    benchmarks

(* ---------------- one delivery fact per transfer ---------------- *)

let lint_errors ~options (c : Compiler.compiled) =
  match Verifier.verify ~opts:options c with
  | Ok (findings, _) -> List.filter Diag.is_error findings
  | Error ds -> fail (Fmt.str "verifier failed: %a" Diag.pp_list ds)

let default_and_no_opt =
  [
    ("default", Decisions.default_options);
    ("no-opt", { Decisions.default_options with Decisions.optimize = false });
  ]

(* A program that validates clean must lint without an error, under the
   default options and --no-opt alike. *)
let lints_clean name src () =
  List.iter
    (fun (oname, options) ->
      let c = Compiler.compile_exn ~options (parse src) in
      check Alcotest.int
        (Fmt.str "%s/%s validates clean" name oname)
        0
        (List.length (validate_with name c (sir_of name c)));
      check
        Alcotest.(list string)
        (Fmt.str "%s/%s lints without an error" name oname)
        []
        (codes (lint_errors ~options c)))
    default_and_no_opt

(* A block vectorized over a small constant loop delivers the element of
   the current iteration, which is what the loop's statement reads. *)
let block_small_loop_src =
  {|
program enum
real x
real a(8), b(8)
!hpf$ processors p(3)
!hpf$ distribute a(block) onto p
!hpf$ align b(i) with a(i)
if (x > 0.0) then
  b(1) = 1.0
end if
do i = 1, 8
  x = x + b(i)
end do
end
|}

(* The processors that evaluate [if (x > 4.0)] read their own copy of
   x, so the broadcast feeding it is live: dte keeps it, and the
   transfer is not dead under --no-opt. *)
let predicate_src =
  {|
program q
real x, y
real a(8)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
y = 0.0
do i = 1, 8
  a(i) = a(i) + 1.0
  x = a(i)
  if (x > 4.0) then
    y = 1.0
  end if
  x = y
end do
a(1) = x
end
|}

let test_predicate_transfer_live () =
  lints_clean "q" predicate_src ();
  let options = { Decisions.default_options with Decisions.optimize = false } in
  let c = Compiler.compile_exn ~options (parse predicate_src) in
  check Alcotest.int "no transfer is dead under --no-opt" 0
    (List.length (analysis_of "q" c).Sir_flow.dead)

(* test_opt's merge program: two element transfers of u(i+1, 1) and
   u(i+1, 2) fuse into one block over a synthetic index, whose one fact
   is a section; each read is covered by membership. *)
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

let test_merged_block_covers () =
  let options = Variants.selected in
  let c = Compiler.compile_exn ~options (parse merge_src) in
  let sir = sir_of "merge" c in
  check Alcotest.int "merge fuses one pair" 1
    (fst (Sir_opt.apply ~nest:c.Compiler.decisions.Decisions.nest "merge" sir));
  check Alcotest.bool "the fused block delivers a section" true
    (List.exists
       (fun (ops : Sir.stmt_ops) ->
         List.exists
           (fun op ->
             match Sir_flow.fact_of_op ~mirror:ops.Sir.mirror op with
             | Some { Sir_flow.key = Sir_flow.K_section _; _ } -> true
             | _ -> false)
           ops.Sir.comms)
       (Sir.all_stmt_ops sir));
  check Alcotest.(list string) "lints without an error after merge" []
    (codes (lint_errors ~options c));
  check Alcotest.int "the merged schedule validates clean" 0
    (List.length (validate_with "merge" c sir))

(* ---------------- corruption tests ---------------- *)

(* Duplicating a transfer makes the copy redundant: the original's
   delivery already covers every destination. *)
let live_transfer_op name (sir : Sir.program)
    (a : Sir_flow.analysis) : Ast.stmt_id * Sir.comm_op =
  let removable =
    List.map (fun (o : Sir.comm_op) -> o.Sir.uid) (Sir_flow.removable a)
  in
  match
    List.filter
      (fun ((_, o) : _ * Sir.comm_op) -> not (List.mem o.Sir.uid removable))
      (transfer_ops sir)
  with
  | x :: _ -> x
  | [] -> fail (name ^ " has no live transfer ops")

let test_w0607_duplicated_op () =
  let c = compiled_of "fig1" (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  let sir = sir_of "fig1" c in
  let sid, op = live_transfer_op "fig1" sir (analysis_of "fig1" c) in
  let dup = { op with Sir.uid = max_uid sir + 1 } in
  let sir' =
    rewrite_ops sir sid (fun ops ->
        { ops with Sir.comms = ops.Sir.comms @ [ dup ] })
  in
  let a = analysis_of "fig1" (with_sir c sir') in
  check Alcotest.bool "duplicating a live transfer adds a W0607" true
    (List.exists
       (fun (o : Sir.comm_op) ->
         o.Sir.uid = dup.Sir.uid || o.Sir.uid = op.Sir.uid)
       a.Sir_flow.redundant);
  (* and the oracle agrees: deleting the copy changes nothing *)
  check Alcotest.int "deleting the duplicate validates clean" 0
    (List.length (validate_with "fig1" c (delete_op sir' dup.Sir.uid)))

(* A transfer whose payload no statement reads afterwards and no
   validation checks is dead. *)
let test_w0606_dead_transfer () =
  let prog =
    parse
      {|
program deadx
parameter n = 16
real a(16)
real t
!hpf$ processors p(4)
!hpf$ distribute a(block)
do i = 1, n
  a(i) = i * 2.0
end do
t = a(1)
end program
|}
  in
  let c = compiled_of "deadx" prog in
  let sir = sir_of "deadx" c in
  (* the final statement [t = a(1)] anchors the gather of a(1); append a
     spurious broadcast of the scalar t after it — nothing ever reads a
     per-processor copy of t again *)
  let sid, anchor =
    match List.rev (transfer_ops sir) with
    | x :: _ -> x
    | [] -> fail "deadx has no transfer ops"
  in
  let spurious =
    {
      anchor with
      Sir.uid = max_uid sir + 1;
      Sir.xfer =
        Sir.Elem_xfer
          {
            data = Sir.X_scalar { var = "t"; owner = [| Sir.C_all |] };
            dests = Sir.D_all;
          };
    }
  in
  let sir' =
    rewrite_ops sir sid (fun ops ->
        { ops with Sir.comms = ops.Sir.comms @ [ spurious ] })
  in
  let a = analysis_of "deadx" (with_sir c sir') in
  check Alcotest.bool "spurious scalar broadcast is W0606" true
    (has_code Codes.w_dead_xfer a.Sir_flow.findings);
  check Alcotest.bool "the dead op is removable" true
    (List.exists
       (fun (o : Sir.comm_op) -> o.Sir.uid = spurious.Sir.uid)
       a.Sir_flow.dead);
  check Alcotest.int "deleting the dead op validates clean" 0
    (List.length (validate_with "deadx" c (delete_op sir' spurious.Sir.uid)))

(* Deleting a load-bearing transfer must surface as a path-sensitive
   stale read. *)
let test_e0612_deleted_op () =
  let c = compiled_of "fig1" (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  let sir = sir_of "fig1" c in
  let _, live = live_transfer_op "fig1" sir (analysis_of "fig1" c) in
  let c' = with_sir c (delete_op sir live.Sir.uid) in
  check Alcotest.bool "deleting a live transfer is E0612" true
    (has_code Codes.e_stale_read (Sir_flow.check c'));
  check Alcotest.bool "the deletion is dynamically visible" true
    (validate_with "fig1" c (delete_op sir live.Sir.uid) <> [])

(* A computes guard whose fixed coordinate lies outside the grid never
   fires. *)
let test_w0608_empty_guard () =
  let c = compiled_of "fig7" (Fig_examples.fig7 ~n:24 ~p:4 ()) in
  let sir = sir_of "fig7" c in
  let target =
    List.find_map
      (fun (ops : Sir.stmt_ops) ->
        match ops.Sir.exec with
        | Sir.Guarded_assign _ -> Some ops.Sir.sid
        | _ -> None)
      (Sir.all_stmt_ops sir)
  in
  let sid = match target with Some s -> s | None -> fail "no guarded stmt" in
  let sir' =
    rewrite_ops sir sid (fun ops ->
        match ops.Sir.exec with
        | Sir.Guarded_assign g ->
            {
              ops with
              Sir.exec =
                Sir.Guarded_assign
                  { g with computes = Sir.P_place [| Sir.C_fixed 99 |] };
            }
        | _ -> ops)
  in
  let a = analysis_of "fig7" (with_sir c sir') in
  check Alcotest.bool "out-of-grid fixed coordinate is W0608" true
    (has_code Codes.w_guard a.Sir_flow.findings)

(* A union member strictly inside a sibling is flagged; the duplicates
   the lowering routinely produces are not. *)
let test_w0608_subsumed_member () =
  let c = compiled_of "fig7" (Fig_examples.fig7 ~n:24 ~p:4 ()) in
  let sir = sir_of "fig7" c in
  let target =
    List.find_map
      (fun (ops : Sir.stmt_ops) ->
        match ops.Sir.exec with
        | Sir.Guarded_assign _ -> Some ops.Sir.sid
        | _ -> None)
      (Sir.all_stmt_ops sir)
  in
  let sid = match target with Some s -> s | None -> fail "no guarded stmt" in
  let corrupt computes =
    rewrite_ops sir sid (fun ops ->
        match ops.Sir.exec with
        | Sir.Guarded_assign g ->
            { ops with Sir.exec = Sir.Guarded_assign { g with computes } }
        | _ -> ops)
  in
  let subsumed =
    corrupt (Sir.P_union [ [| Sir.C_all |]; [| Sir.C_fixed 1 |] ])
  in
  let a = analysis_of "fig7" (with_sir c subsumed) in
  check Alcotest.bool "member inside an all-place sibling is W0608" true
    (has_code Codes.w_guard a.Sir_flow.findings);
  let duplicates =
    corrupt (Sir.P_union [ [| Sir.C_fixed 1 |]; [| Sir.C_fixed 1 |] ])
  in
  let a = analysis_of "fig7" (with_sir c duplicates) in
  check Alcotest.bool "duplicate members alone are not flagged" false
    (has_code Codes.w_guard a.Sir_flow.findings)

(* ---------------- the delete-and-diff oracle ---------------- *)

(* The killer test.  For every benchmark: every transfer the analysis
   marks removable must be deletable from the recorded program with a
   clean validation verdict and no new E0612; deleting any other
   transfer must make the re-run analysis report the stale read. *)
let test_oracle (name, prog) () =
  let c = compiled_of name (prog ()) in
  let sir = sir_of name c in
  let a = analysis_of name c in
  let removable =
    List.map (fun (o : Sir.comm_op) -> o.Sir.uid) (Sir_flow.removable a)
  in
  let live = ref 0 and dead = ref 0 in
  List.iter
    (fun ((_, op) : _ * Sir.comm_op) ->
      let sir' = delete_op sir op.Sir.uid in
      let tag = Fmt.str "%s: delete c%d (uid %d)" name op.Sir.pos op.Sir.uid in
      if List.mem op.Sir.uid removable then begin
        incr dead;
        check Alcotest.int (tag ^ ": removable op validates clean") 0
          (List.length (validate_with name c sir'));
        check Alcotest.bool (tag ^ ": removable op leaves no stale read")
          false
          (has_code Codes.e_stale_read (Sir_flow.check (with_sir c sir')))
      end
      else begin
        incr live;
        check Alcotest.bool (tag ^ ": live op deletion trips E0612") true
          (has_code Codes.e_stale_read (Sir_flow.check (with_sir c sir')))
      end)
    (transfer_ops sir);
  (* fig7 is the fully privatized workspace example: no communication
     at all is its whole point *)
  if !live + !dead = 0 && name <> "fig7" then
    fail (name ^ ": no transfer ops exercised")

(* ---------------- the sorted-list reference ---------------- *)

module Lf = Oracles.List_flow

let examples_dir =
  List.find Sys.file_exists [ "../examples/programs"; "examples/programs" ]

let examples () =
  Sys.readdir examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".hpfk")
  |> List.sort compare
  |> List.map (fun f ->
         ( Filename.chop_suffix f ".hpfk",
           fun () ->
             parse
               (In_channel.with_open_bin (Filename.concat examples_dir f)
                  In_channel.input_all) ))

(* The six kernels at the sizes the count record compiles them. *)
let bench_kernels =
  [
    ("fig1@4", fun () -> Fig_examples.fig1 ~n:64 ~p:4 ());
    ("fig2@4", fun () -> Fig_examples.fig2 ~n:32 ~np:4 ());
    ("fig7@4", fun () -> Fig_examples.fig7 ~n:48 ~p:4 ());
    ("tomcatv@4", fun () -> Tomcatv.program ~n:66 ~niter:1 ~p:4);
    ("dgefa@4", fun () -> Dgefa.program ~n:64 ~p:4);
    ("appsp_2d@4", fun () -> Appsp.program_2d ~n:18 ~niter:1 ~p1:2 ~p2:2);
  ]

let tomcatv_x2 () = Prog_gen.compose 2 (Tomcatv.program ~n:66 ~niter:1 ~p:4)
let tomcatv_x4 () = Prog_gen.compose 4 (Tomcatv.program ~n:66 ~niter:1 ~p:4)

(* Every node's four states, rendered. *)
let render_states pp_avail pp_live n (avail : _ Flow.result)
    (live : _ Flow.result) =
  String.concat ""
    (List.init n (fun i ->
         Fmt.str "b%d in %a out %a live-out %a live-in %a\n" i pp_avail
           avail.Flow.input.(i) pp_avail avail.Flow.output.(i) pp_live
           live.Flow.input.(i) pp_live live.Flow.output.(i)))

(* Every node's four states as fact and name lists, sources included
   (the rendering omits them). *)
let all_states avail_facts live_names n (avail : _ Flow.result)
    (live : _ Flow.result) =
  List.init n (fun i ->
      ( List.map avail_facts [ avail.Flow.input.(i); avail.Flow.output.(i) ],
        List.map live_names [ live.Flow.input.(i); live.Flow.output.(i) ] ))

let pairs l = List.map (fun (sid, (o : Sir.comm_op)) -> (sid, o.Sir.uid)) l

let render_reqs (rs : Sir_flow.req list) =
  List.map
    (fun (r : Sir_flow.req) ->
      Fmt.str "b%d %s -> %a" r.Sir_flow.node
        (Hpf_comm.Comm.signature r.Sir_flow.cm)
        Sir_pp.pp_dests r.Sir_flow.need)
    rs

(* The interned-bitset core against the sorted-list reference: the
   dead, redundant and stale classes, every node's rendered and actual
   states, and the iteration counts of both fixpoints.  The E0612
   audit's requirements, read from the schedule, against their
   re-derivation from the decisions. *)
let agree name (c : Compiler.compiled) =
  let sir = sir_of name c in
  let s = Sir_dataflow.summarize sir and o = Lf.summarize sir in
  let u = s.Sir_dataflow.universe and n = Sir_cfg.n_nodes o.Lf.cfg in
  let ids = Alcotest.(list (pair int int)) in
  check ids (name ^ ": dead class") (pairs o.Lf.dead)
    (pairs s.Sir_dataflow.dead);
  check ids (name ^ ": redundant class") (pairs o.Lf.redundant)
    (pairs s.Sir_dataflow.redundant);
  check Alcotest.int (name ^ ": avail iterations")
    o.Lf.avail.Flow.iterations s.Sir_dataflow.avail.Flow.iterations;
  check Alcotest.int (name ^ ": live iterations")
    o.Lf.live.Flow.iterations s.Sir_dataflow.live.Flow.iterations;
  check Alcotest.string (name ^ ": rendered states")
    (render_states Lf.pp_avail Lf.pp_live n o.Lf.avail o.Lf.live)
    (render_states (Sir_dataflow.pp_avail u) (Sir_dataflow.pp_live u) n
       s.Sir_dataflow.avail s.Sir_dataflow.live);
  check Alcotest.bool (name ^ ": states agree, sources included") true
    (all_states
       (function Lf.Avail.Top -> None | Lf.Avail.Facts fs -> Some fs)
       Fun.id n o.Lf.avail o.Lf.live
    = all_states (Sir_dataflow.Avail.facts u) (Sir_dataflow.Live.names u) n
        s.Sir_dataflow.avail s.Sir_dataflow.live);
  check
    Alcotest.(list string)
    (name ^ ": requirements = re-derived")
    (render_reqs (Oracles.flow_requirements c o.Lf.cfg))
    (render_reqs (Sir_flow.requirements c o.Lf.cfg));
  let stale_ref =
    List.filter
      (fun (r : Sir_flow.req) ->
        not
          (Lf.covered_at o r.Sir_flow.node ~key:r.Sir_flow.key
             ~need:r.Sir_flow.need))
      (Sir_flow.requirements c o.Lf.cfg)
  in
  check
    Alcotest.(list string)
    (name ^ ": stale class") (render_reqs stale_ref)
    (render_reqs (analysis_of name c).Sir_flow.stale)

let option_sets = Phpf_serve.Serve.workload_option_sets

let agree_under_options name prog =
  List.iter
    (fun (oname, options) ->
      match Compiler.compile ~options (prog ()) with
      | Ok c -> agree (name ^ "/" ^ oname) c
      | Error ds ->
          fail (Fmt.str "%s does not compile: %a" name Diag.pp_list ds))
    option_sets

let test_oracle_programs programs () =
  List.iter (fun (name, prog) -> agree_under_options name prog) programs

(* The stale class is empty on every clean compile: corrupt programs
   exercise it. *)
let test_oracle_corrupted () =
  let c = compiled_of "fig1" (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  let sir = sir_of "fig1" c in
  List.iter
    (fun ((_, op) : _ * Sir.comm_op) ->
      agree
        (Fmt.str "fig1 without uid %d" op.Sir.uid)
        (with_sir c (delete_op sir op.Sir.uid)))
    (transfer_ops sir)

(* The section a merged block delivers, against the list lattice. *)
let test_oracle_merged () =
  let c = Compiler.compile_exn ~options:Variants.selected (parse merge_src) in
  check Alcotest.int "merge fuses one pair" 1
    (fst
       (Sir_opt.apply ~nest:c.Compiler.decisions.Decisions.nest "merge"
          (sir_of "merge" c)));
  agree "merge after sir-opt.merge" c

let prop_oracle_generated =
  QCheck2.Test.make ~name:"generated programs agree with the list lattice"
    ~count:40
    ~print:(fun p -> Pp.program_to_string p)
    Prog_gen.gen_checked_program
    (fun p ->
      List.iter
        (fun (oname, options) ->
          agree ("generated/" ^ oname) (Compiler.compile_exn ~options p))
        option_sets;
      true)

let () =
  Alcotest.run "flow"
    [
      ( "cfg",
        [
          Alcotest.test_case "structure on all benchmarks" `Quick
            test_cfg_structure;
          Alcotest.test_case "loop expansion shape" `Quick test_cfg_loop_shape;
        ] );
      ( "engine",
        [
          Alcotest.test_case "reachability both directions" `Quick
            test_engine_reachability;
          Alcotest.test_case "loop convergence iterates" `Quick
            test_engine_loop_convergence;
        ] );
      ("coverage", [ Alcotest.test_case "lattice" `Quick test_coverage ]);
      ( "clean",
        [
          Alcotest.test_case "no stale reads on benchmarks" `Quick
            test_clean_programs_no_stale;
        ] );
      ( "one-fact",
        [
          Alcotest.test_case "block over a small loop lints clean" `Quick
            (lints_clean "enum" block_small_loop_src);
          Alcotest.test_case "IF condition keeps its broadcast" `Quick
            test_predicate_transfer_live;
          Alcotest.test_case "merged block covers by membership" `Quick
            test_merged_block_covers;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "W0607 duplicated transfer" `Quick
            test_w0607_duplicated_op;
          Alcotest.test_case "W0606 dead scalar broadcast" `Quick
            test_w0606_dead_transfer;
          Alcotest.test_case "E0612 deleted live transfer" `Quick
            test_e0612_deleted_op;
          Alcotest.test_case "W0608 statically empty guard" `Quick
            test_w0608_empty_guard;
          Alcotest.test_case "W0608 strictly subsumed member" `Quick
            test_w0608_subsumed_member;
        ] );
      ( "oracle",
        List.map
          (fun (name, prog) ->
            Alcotest.test_case ("delete-and-diff " ^ name) `Quick
              (test_oracle (name, prog)))
          benchmarks );
      ( "list-lattice",
        [
          Alcotest.test_case "examples" `Quick
            (test_oracle_programs (examples ()));
          Alcotest.test_case "bench kernels" `Quick
            (test_oracle_programs bench_kernels);
          Alcotest.test_case "tomcatv x2" `Quick
            (test_oracle_programs [ ("tomcatv_x2", tomcatv_x2) ]);
          Alcotest.test_case "tomcatv x4" `Quick
            (test_oracle_programs [ ("tomcatv_x4", tomcatv_x4) ]);
          Alcotest.test_case "corrupted fig1" `Quick test_oracle_corrupted;
          Alcotest.test_case "merged block" `Quick test_oracle_merged;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 12075110 |])
            prop_oracle_generated;
        ] );
    ]
