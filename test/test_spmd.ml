(* End-to-end SPMD validation: the per-processor interpreter with the
   compiler's communication schedule must reproduce the sequential
   reference results for every benchmark and every optimization variant,
   on several machine sizes.  A negative control checks that the
   validation actually detects missing communication, and an allocation
   budget keeps the executor's per-instance path from allocating per
   element again. *)

open Hpf_lang
open Phpf_core
open Hpf_spmd
open Hpf_benchmarks

let check = Alcotest.check
let fail = Alcotest.fail

let validate_ok ?options prog =
  let c = Compiler.compile_exn ?options prog in
  let st = Spmd_interp.run ~init:(Init.init c.Compiler.prog) c in
  match Spmd_interp.validate st with
  | [] -> st
  | m :: _ -> fail (Fmt.str "mismatch: %a" Spmd_interp.pp_mismatch m)

let test_fig1 () =
  List.iter
    (fun p ->
      ignore (validate_ok (Fig_examples.fig1 ~n:40 ~p ())))
    [ 1; 2; 4; 5 ]

let test_fig1_variants () =
  List.iter
    (fun options -> ignore (validate_ok ~options (Fig_examples.fig1 ~n:40 ~p:4 ())))
    [ Variants.replication; Variants.producer_alignment; Variants.selected ]

let test_fig2 () = ignore (validate_ok (Fig_examples.fig2 ~n:16 ~np:4 ()))

let test_fig5 () =
  List.iter
    (fun (p1, p2) -> ignore (validate_ok (Fig_examples.fig5 ~n:16 ~p1 ~p2 ())))
    [ (1, 1); (2, 2); (4, 2) ]

let test_fig5_default () =
  ignore
    (validate_ok ~options:Variants.no_reduction_alignment
       (Fig_examples.fig5 ~n:16 ~p1:2 ~p2:2 ()))

let test_fig7 () =
  List.iter
    (fun p -> ignore (validate_ok (Fig_examples.fig7 ~n:24 ~p ())))
    [ 1; 3; 4 ]

let test_tomcatv () =
  List.iter
    (fun p ->
      ignore (validate_ok (Tomcatv.program ~n:14 ~niter:2 ~p)))
    [ 1; 2; 4 ]

let test_tomcatv_variants () =
  List.iter
    (fun options ->
      ignore (validate_ok ~options (Tomcatv.program ~n:14 ~niter:2 ~p:4)))
    [ Variants.replication; Variants.producer_alignment; Variants.selected ]

let test_dgefa () =
  List.iter
    (fun p -> ignore (validate_ok (Dgefa.program ~n:12 ~p)))
    [ 1; 2; 4 ]

let test_dgefa_default () =
  ignore
    (validate_ok ~options:Variants.no_reduction_alignment
       (Dgefa.program ~n:12 ~p:4))

let test_appsp_2d () =
  List.iter
    (fun (p1, p2) ->
      ignore (validate_ok (Appsp.program_2d ~n:8 ~niter:1 ~p1 ~p2)))
    [ (1, 1); (2, 2); (2, 4) ]

let test_appsp_2d_no_partial () =
  ignore
    (validate_ok ~options:Variants.no_partial_priv
       (Appsp.program_2d ~n:8 ~niter:1 ~p1:2 ~p2:2))

let test_appsp_1d () =
  List.iter
    (fun p ->
      ignore (validate_ok (Appsp.program_1d ~n:8 ~niter:1 ~p)))
    [ 1; 2; 4 ]

let test_appsp_1d_no_priv () =
  ignore
    (validate_ok ~options:Variants.no_array_priv
       (Appsp.program_1d ~n:8 ~niter:1 ~p:2))

(* regression: partially privatized arrays (paper §3.2, APPSP's [c])
   are no longer skipped by validation — they are checked along their
   partitioned grid dimensions.  A clean run still validates (each
   owner-line member may hold different iterations' values along the
   privatized dimensions), and corrupting an element on {e every}
   processor must be detected. *)
let test_appsp_partial_priv_validated () =
  let c =
    Compiler.compile_exn
      (Sema.check (Appsp.program_2d ~n:8 ~niter:1 ~p1:2 ~p2:2))
  in
  let d = c.Compiler.decisions in
  let partial =
    List.fold_left
      (fun acc ((name, _), m) ->
        match m with
        | Decisions.Arr_partial_priv _ ->
            if List.mem name acc then acc else name :: acc
        | _ -> acc)
      [] (Decisions.array_mappings d)
  in
  check Alcotest.bool "appsp 2d partially privatizes an array" true
    (partial <> []);
  let st = Spmd_interp.run ~init:(Init.init c.Compiler.prog) c in
  (match Spmd_interp.validate st with
  | [] -> ()
  | m :: _ -> fail (Fmt.str "clean run: %a" Spmd_interp.pp_mismatch m));
  let a = List.hd partial in
  Array.iter
    (fun m -> Memory.set_elem m a [ 1; 1 ] (Value.R 1e30))
    st.Spmd_interp.procs;
  match Spmd_interp.validate st with
  | [] ->
      fail
        (Fmt.str
           "corrupting partially-privatized %s on every processor must \
            be detected"
           a)
  | ms ->
      check Alcotest.bool "mismatch names the corrupted array" true
        (List.exists
           (fun (mm : Spmd_interp.mismatch) -> String.equal mm.array a)
           ms)

(* regression: a scalar-shaped reference with an array base (a
   whole-array communication) used to fall through [transfer] silently,
   dropping the communication; it must now move every element from its
   owner *)
let test_whole_array_transfer () =
  let prog = Sema.check (Fig_examples.fig1 ~n:16 ~p:4 ()) in
  let c = Compiler.compile_exn prog in
  let base_transfers =
    let st =
      Spmd_interp.run ~init:(Init.init c.Compiler.prog)
        ~sir:(Oracles.relower c) c
    in
    st.Spmd_interp.transfers
  in
  let sid =
    match c.Compiler.prog.Ast.body with
    | s :: _ -> s.Ast.sid
    | [] -> fail "empty program"
  in
  let arr =
    match
      List.find_opt
        (fun (d : Ast.decl) -> d.Ast.shape <> [])
        c.Compiler.prog.Ast.decls
    with
    | Some d -> d.Ast.dname
    | None -> fail "no distributed array"
  in
  let whole =
    {
      Hpf_comm.Comm.data = { Hpf_analysis.Aref.sid; base = arr; subs = [] };
      kind = Hpf_comm.Comm.Broadcast;
      stmt_level = 0;
      placement_level = 0;
      elems_per_instance = 1;
      instances = 1;
      group = None;
      agg_vars = [];
      scale = 1;
      boundary_fraction = 1.0;
    }
  in
  let c' = { c with Compiler.comms = whole :: c.Compiler.comms } in
  let st =
    Spmd_interp.run ~init:(Init.init c'.Compiler.prog)
      ~sir:(Oracles.relower c') c'
  in
  (match Spmd_interp.validate st with
  | [] -> ()
  | m :: _ ->
      fail (Fmt.str "whole-array comm: %a" Spmd_interp.pp_mismatch m));
  check Alcotest.bool "whole-array comm moves elements" true
    (st.Spmd_interp.transfers > base_transfers)

(* negative control: dropping the communication schedule must produce
   mismatches (stale operands on some owner) *)
let test_missing_comm_detected () =
  let prog = Sema.check (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  let c = Compiler.compile_exn prog in
  check Alcotest.bool "fig1 has communication" true (c.Compiler.comms <> []);
  let broken = { c with Compiler.comms = [] } in
  let st =
    Spmd_interp.run ~init:(Init.init broken.Compiler.prog)
      ~sir:(Oracles.relower broken) broken
  in
  match Spmd_interp.validate st with
  | [] -> fail "validation must detect missing communication"
  | _ -> ()

let test_transfer_counts_scale () =
  (* more processors => at least as many boundary transfers *)
  let count p =
    let c = Compiler.compile_exn (Fig_examples.fig1 ~n:64 ~p ()) in
    let st = Spmd_interp.run ~init:(Init.init c.Compiler.prog) c in
    (match Spmd_interp.validate st with
    | [] -> ()
    | m :: _ -> fail (Fmt.str "mismatch: %a" Spmd_interp.pp_mismatch m));
    st.Spmd_interp.transfers
  in
  let c1 = count 1 and c4 = count 4 and c8 = count 8 in
  check Alcotest.int "P=1: no transfers" 0 c1;
  check Alcotest.bool "P=8 >= P=4 > 0" true (c8 >= c4 && c4 > 0)

(* The executor allocates per packet, not per element: payloads are
   flat arrays addressed by slot and cell, checksums stream, guards
   evaluate into their own buffers and the per-processor writes are
   built once per run.  Minor-heap words are a deterministic count for a
   given compiler, so a run of dgefa (n=32, P=8, default options) after
   a warm-up run must stay within 100 words per statement instance
   (~49 here; index lists, list checksums and fresh guard sets took
   ~200). *)
let test_alloc_budget () =
  let c = Compiler.compile_exn (Dgefa.program ~n:32 ~p:8) in
  let init = Init.init c.Compiler.prog in
  let run () = ignore (Spmd_interp.run ~init c) in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let words = Gc.minor_words () -. w0 in
  let instances = (fst (Trace_sim.run ~init c)).Trace_sim.stmt_instances in
  let per = words /. float_of_int instances in
  if per > 100.0 then
    fail
      (Fmt.str "%.0f words over %d statement instances: %.1f per instance > 100"
         words instances per)

(* The one mapping from failed runs to diagnostics, which phpfc and
   serve share, on constructed exceptions: located E0701 and E0704 (the
   budget hint only when the caller names a flag), an unrecoverable
   campaign's own diagnostics, and nothing for any other exception. *)
let test_runtime_diags () =
  let loc = Loc.make ~file:"f.hpfk" ~line:3 ~col:5 in
  let one ?fuel_flag exn =
    match Spmd_interp.runtime_diags ?fuel_flag exn with
    | Some [ d ] -> d
    | _ -> fail (Printexc.to_string exn ^ ": expected one diagnostic")
  in
  let located code (d : Diag.t) =
    check Alcotest.string "code" code d.Diag.code;
    check Alcotest.bool "located" true (d.Diag.loc = Some loc);
    d.Diag.message
  in
  let fuel = Seq_interp.Fuel_exhausted { loc = Some loc; sid = 2; budget = 7 } in
  check Alcotest.string "E0704 with the flag"
    "statement-instance budget exhausted after 7 instances (raise it with \
     --fuel)"
    (located "E0704" (one ~fuel_flag:"--fuel" fuel));
  check Alcotest.string "E0704 without a flag"
    "statement-instance budget exhausted after 7 instances"
    (located "E0704" (one fuel));
  check Alcotest.string "E0701" "zero loop step"
    (located "E0701"
       (one
          (Memory.Runtime_error
             { loc = Some loc; sid = Some 2; msg = "zero loop step" })));
  let ds =
    [ Diag.error ~code:"E0703" "lost"; Diag.note ~code:"E0703" "why" ]
  in
  check Alcotest.bool "Unrecoverable keeps its diagnostics" true
    (Spmd_interp.runtime_diags (Recover.Unrecoverable ds) = Some ds);
  List.iter
    (fun exn ->
      check Alcotest.bool (Printexc.to_string exn ^ " is not a run failure")
        true
        (Spmd_interp.runtime_diags exn = None))
    [ Not_found; Failure "x"; Diag.Fatal ds; Invalid_argument "y" ]

let () =
  Alcotest.run "spmd"
    [
      ( "paper-figures",
        [
          Alcotest.test_case "fig1 across P" `Quick test_fig1;
          Alcotest.test_case "fig1 variants" `Quick test_fig1_variants;
          Alcotest.test_case "fig2" `Quick test_fig2;
          Alcotest.test_case "fig5 across grids" `Quick test_fig5;
          Alcotest.test_case "fig5 default" `Quick test_fig5_default;
          Alcotest.test_case "fig7" `Quick test_fig7;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "tomcatv across P" `Quick test_tomcatv;
          Alcotest.test_case "tomcatv variants" `Quick test_tomcatv_variants;
          Alcotest.test_case "dgefa across P" `Quick test_dgefa;
          Alcotest.test_case "dgefa default" `Quick test_dgefa_default;
          Alcotest.test_case "appsp 2d across grids" `Quick test_appsp_2d;
          Alcotest.test_case "appsp 2d no partial" `Quick
            test_appsp_2d_no_partial;
          Alcotest.test_case "appsp 1d across P" `Quick test_appsp_1d;
          Alcotest.test_case "appsp 1d no priv" `Quick test_appsp_1d_no_priv;
          Alcotest.test_case "appsp partial priv validated" `Quick
            test_appsp_partial_priv_validated;
        ] );
      ( "controls",
        [
          Alcotest.test_case "whole-array transfer" `Quick
            test_whole_array_transfer;
          Alcotest.test_case "missing comm detected" `Quick
            test_missing_comm_detected;
          Alcotest.test_case "transfer counts scale" `Quick
            test_transfer_counts_scale;
          Alcotest.test_case "allocation budget" `Quick test_alloc_budget;
          Alcotest.test_case "runtime failure diagnostics" `Quick
            test_runtime_diags;
        ] );
    ]
