(* The static verifier (phpfc lint).

   Three layers: (1) unit tests of the checker primitives on handcrafted
   specs and programs; (2) corruption tests — a compiled artifact is
   damaged in a specific way and the checker must produce the specific
   code; (3) the differential suite — on every seed (program,
   corruption) the static verifier and the dynamic SPMD cross-check
   (Spmd_interp.validate) must agree on pass/fail, so the verifier is no
   weaker than the dynamic check on these seeds. *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping
open Hpf_comm
open Phpf_core
open Phpf_verify
open Hpf_spmd
open Hpf_benchmarks

(* The corruption and differential seeds assume phpf's verbatim
   schedule: compile with the paper-faithful options (Sir optimizer
   off) unless a case opts in. *)
module Compiler = struct
  include Compiler

  let compile_exn ?grid_override ?(options = Variants.selected) p =
    compile_exn ?grid_override ~options p
end

let check = Alcotest.check
let fail = Alcotest.fail
let parse src = Sema.check (Parser.parse_string src)

let verify_exn ?opts c =
  match Verifier.verify ?opts c with
  | Ok (findings, _) -> findings
  | Error ds -> fail (Fmt.str "verifier crashed: %a" Diag.pp_list ds)

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds

let has_code c ds = List.mem c (codes ds)

let check_clean name ?options prog =
  let c = Compiler.compile_exn ?options prog in
  let errs = Verifier.errors (verify_exn ?opts:options c) in
  if errs <> [] then
    fail (Fmt.str "%s: unexpected errors: %a" name Diag.pp_list errs)

(* ---------------- spec primitives ---------------- *)

let o_aff pos =
  Ownership.O_affine
    { fmt = Dist.Block 4; nprocs = 4; pos = Affine.constant pos }

let test_covers () =
  let all = [| Ownership.O_all |] in
  let a0 = [| o_aff 0 |] in
  let a1 = [| o_aff 1 |] in
  let unk = [| Ownership.O_unknown |] in
  check Alcotest.bool "all covers affine" true
    (Vutil.covers ~execs:all ~owners:a0);
  check Alcotest.bool "equal affine covers" true
    (Vutil.covers ~execs:a0 ~owners:a0);
  check Alcotest.bool "different affine does not cover" false
    (Vutil.covers ~execs:a0 ~owners:a1);
  check Alcotest.bool "affine does not cover all" false
    (Vutil.covers ~execs:a0 ~owners:all);
  check Alcotest.bool "unknown owner needs replicated executors" false
    (Vutil.covers ~execs:unk ~owners:unk);
  check Alcotest.bool "all covers unknown" true
    (Vutil.covers ~execs:all ~owners:unk);
  check Alcotest.bool "wider is detected" true
    (Vutil.strictly_wider ~execs:all ~owners:a0);
  check Alcotest.bool "equal is not wider" false
    (Vutil.strictly_wider ~execs:a0 ~owners:a0)

(* ---------------- clean compilations lint clean ---------------- *)

let all_variants =
  [
    Variants.selected;
    Variants.replication;
    Variants.producer_alignment;
    Variants.no_reduction_alignment;
    Variants.no_array_priv;
    Variants.no_partial_priv;
  ]

let seed_programs =
  [
    ("fig1", Fig_examples.fig1 ~n:40 ~p:4 ());
    ("fig2", Fig_examples.fig2 ~n:16 ~np:4 ());
    ("fig5", Fig_examples.fig5 ~n:16 ~p1:2 ~p2:2 ());
    ("fig7", Fig_examples.fig7 ~n:24 ~p:4 ());
    ("tomcatv", Tomcatv.program ~n:14 ~niter:2 ~p:4);
    ("dgefa", Dgefa.program ~n:12 ~p:4);
    ("appsp2d", Appsp.program_2d ~n:8 ~niter:1 ~p1:2 ~p2:2);
    ("appsp1d", Appsp.program_1d ~n:8 ~niter:1 ~p:2);
  ]

let test_benchmarks_lint_clean () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun options -> check_clean name ~options prog)
        all_variants)
    seed_programs

(* ---------------- corruption unit tests ---------------- *)

(* Recompile fresh for every corruption: the decision tables are mutable
   hashtables shared with the compiled value. *)
let fresh prog = Compiler.compile_exn prog

let first_aligned (d : Decisions.t) =
  List.find_map
    (fun (def, m) ->
      match m with Decisions.Priv_aligned _ -> Some (def, m) | _ -> None)
    (Decisions.scalar_mappings d)

let test_drop_comm_flagged () =
  let c = fresh (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  check Alcotest.bool "fig1 has comms" true (c.Compiler.comms <> []);
  let broken = { c with Compiler.comms = [] } in
  let errs = Verifier.errors (verify_exn broken) in
  check Alcotest.bool "missing comm is a soundness error" true (errs <> []);
  check Alcotest.bool "E0603 or E0608 reported" true
    (has_code "E0603" errs || has_code "E0608" errs)

let test_misplaced_comm_flagged () =
  let c = fresh (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  let vectorized, rest =
    List.partition (fun cm -> Comm.vectorized cm) c.Compiler.comms
  in
  match vectorized with
  | [] -> fail "fig1 should have a vectorized comm"
  | cm :: tl ->
      (* sink the hoisted message back inside its loop *)
      let sunk = { cm with Comm.placement_level = cm.Comm.stmt_level } in
      let broken = { c with Compiler.comms = (sunk :: tl) @ rest } in
      let errs = Verifier.errors (verify_exn broken) in
      check Alcotest.bool "sunk comm is E0604" true (has_code "E0604" errs)

let test_dangling_comm_flagged () =
  let c = fresh (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  match c.Compiler.comms with
  | [] -> fail "fig1 should have comms"
  | cm :: _ ->
      let ghost =
        { cm with Comm.data = { cm.Comm.data with Aref.sid = 9999 } }
      in
      let broken = { c with Compiler.comms = ghost :: c.Compiler.comms } in
      let errs = Verifier.errors (verify_exn broken) in
      check Alcotest.bool "dangling comm is E0609" true
        (has_code "E0609" errs)

let test_redundant_comm_warned () =
  let c = fresh (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  match c.Compiler.comms with
  | [] -> fail "fig1 should have comms"
  | cm :: _ ->
      let broken = { c with Compiler.comms = cm :: c.Compiler.comms } in
      let findings = verify_exn broken in
      check Alcotest.bool "duplicate comm is W0603" true
        (has_code "W0603" findings);
      check Alcotest.bool "but not an error" false
        (Verifier.has_errors findings)

let test_replicate_aligned_flagged () =
  let c = fresh (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  let d = c.Compiler.decisions in
  match first_aligned d with
  | None -> fail "fig1 should have an aligned scalar"
  | Some (def, _) ->
      Decisions.unsafe_set_scalar_mapping d def Decisions.Replicated;
      let errs = Verifier.errors (verify_exn c) in
      check Alcotest.bool "schedule no longer matches decisions" true
        (errs <> [])

let test_bad_align_level_flagged () =
  let c = fresh (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  let d = c.Compiler.decisions in
  match first_aligned d with
  | None -> fail "fig1 should have an aligned scalar"
  | Some (def, Decisions.Priv_aligned { target; _ }) ->
      (* fig1's nest is 1 deep: level 3 cannot exist *)
      Decisions.unsafe_set_scalar_mapping d def
        (Decisions.Priv_aligned { target; level = 3 });
      let errs = Verifier.errors (verify_exn c) in
      check Alcotest.bool "impossible level is E0606" true
        (has_code "E0606" errs)
  | Some _ -> assert false

let test_bad_repl_dims_flagged () =
  let c = fresh (Dgefa.program ~n:12 ~p:4) in
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
  match red with
  | None -> fail "dgefa should have a reduction mapping"
  | Some (def, target, level) ->
      Decisions.unsafe_set_scalar_mapping d def
        (Decisions.Priv_reduction { target; repl_grid_dims = [ 7 ]; level });
      let errs = Verifier.errors (verify_exn c) in
      check Alcotest.bool "out-of-range grid dim is E0605" true
        (has_code "E0605" errs)

let test_scope_violation_flagged () =
  (* s's in-loop definition feeds the next iteration and the code after
     the loop; privatizing it in any form violates §2.1 *)
  let prog =
    parse
      {|
program scope
parameter n = 16
real a(16)
real s
real r
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
s = 0.0
do i = 1, n
  s = s + a(i)
end do
r = s
end
|}
  in
  let c = fresh prog in
  let d = c.Compiler.decisions in
  let g = Cfg.build c.Compiler.prog in
  ignore g;
  let in_loop_def =
    List.find
      (fun def ->
        match Ssa.def_node d.Decisions.ssa def with
        | Some node -> (
            match Cfg.sid_of_node d.Decisions.ssa.Ssa.cfg node with
            | Some sid -> Nest.level d.Decisions.nest sid > 0
            | None -> false)
        | None -> false)
      (Ssa.defs_of_var d.Decisions.ssa "s")
  in
  Decisions.unsafe_set_scalar_mapping d in_loop_def Decisions.Priv_no_align;
  let errs = Verifier.errors (verify_exn c) in
  check Alcotest.bool "escape or back-edge flagged" true
    (has_code "E0601" errs || has_code "E0602" errs)

let test_structural_array_entry_flagged () =
  let c = fresh (Appsp.program_2d ~n:8 ~niter:1 ~p1:2 ~p2:2) in
  let d = c.Compiler.decisions in
  (* key an array privatization to a non-loop statement *)
  let non_loop =
    List.find
      (fun (s : Ast.stmt) ->
        match s.Ast.node with Ast.Do _ -> false | _ -> true)
      (Ast.all_stmts c.Compiler.prog)
  in
  Decisions.unsafe_set_array_mapping d ("c", non_loop.Ast.sid)
    (Decisions.Arr_priv { target = None });
  let errs = Verifier.errors (verify_exn c) in
  check Alcotest.bool "non-loop key is E0606" true (has_code "E0606" errs)

(* SubscriptAlignLevel concerns the subscripts in distributed
   dimensions only (paper §2.2): on a 1-D grid, a scalar aligned with
   m(i, j) at level 1 is valid although j varies inside that loop,
   because m's second dimension is collapsed. *)
let collapsed_src ~grid ~dist =
  Fmt.str
    {|
program collapsed
real x
real m(8, 8)
!hpf$ processors p(%s)
!hpf$ distribute m(%s) onto p
do i = 1, 8
  x = 0.0
  do j = 1, 8
    if (m(i, j) > x) then
      x = m(i, j) - x
    end if
    m(i, j) = x
  end do
end do
end
|}
    grid dist

let inner_def_of_x (c : Compiler.compiled) =
  let d = c.Compiler.decisions in
  List.find_map
    (fun def ->
      match Ssa.def_node d.Decisions.ssa def with
      | None -> None
      | Some node -> (
          match Cfg.sid_of_node d.Decisions.ssa.Ssa.cfg node with
          | Some sid when Nest.level d.Decisions.nest sid = 2 ->
              Some (def, sid)
          | _ -> None))
    (Ssa.defs_of_var d.Decisions.ssa "x")

let test_collapsed_dim_align_level () =
  let prog = parse (collapsed_src ~grid:"4" ~dist:"block, *") in
  (* the compiler aligns the inner definition at level 1 *)
  let c = Compiler.compile_exn ~options:Decisions.default_options prog in
  (match inner_def_of_x c with
  | Some (def, _) -> (
      match Decisions.scalar_mapping_of_def c.Compiler.decisions def with
      | Decisions.Priv_aligned { target; level = 1 } ->
          check Alcotest.string "aligned with m" "m" target.Aref.base
      | _ -> fail "x in the inner loop should be aligned at level 1")
  | None -> fail "no definition of x in the inner loop");
  List.iter
    (fun options -> check_clean "collapsed 1-D" ~options prog)
    [ Decisions.default_options; Variants.selected ]

let test_distributed_dim_align_level () =
  let c =
    fresh (parse (collapsed_src ~grid:"2, 2" ~dist:"block, block"))
  in
  match inner_def_of_x c with
  | None -> fail "no definition of x in the inner loop"
  | Some (def, sid) ->
      let target =
        { Aref.sid; base = "m"; subs = [ Ast.Var "i"; Ast.Var "j" ] }
      in
      Decisions.unsafe_set_scalar_mapping c.Compiler.decisions def
        (Decisions.Priv_aligned { target; level = 1 });
      let varies_with_j (e : Diag.t) =
        e.Diag.code = "E0606"
        && String.ends_with ~suffix:"varies with index j of the level-2 \
                                     loop, inside its own validity level 1"
             e.Diag.message
      in
      check Alcotest.bool "j in a distributed dimension is E0606" true
        (List.exists varies_with_j (verify_exn c))

(* A missing communication at a statement every processor executes is
   divergent replication, reported by verify-comm from its requirement
   diff; verify-race audits owner coverage alone. *)
let test_divergent_counted_in_comm () =
  let c = fresh (Fig_examples.fig2 ~n:16 ~np:4 ()) in
  let d = c.Compiler.decisions in
  let at_replicated (cm : Comm.t) =
    match Ast.find_stmt c.Compiler.prog cm.Comm.data.Aref.sid with
    | Some s -> Vutil.replicated_stmt d s
    | None -> false
  in
  let dropped, kept = List.partition at_replicated c.Compiler.comms in
  check Alcotest.bool "fig2 reads a communicated value at a replicated \
                       statement" true (dropped <> []);
  match Verifier.verify { c with Compiler.comms = kept } with
  | Error ds -> fail (Fmt.str "crash: %a" Diag.pp_list ds)
  | Ok (findings, trace) ->
      let errors pass =
        match Phpf_driver.Pipeline.stats_of trace pass with
        | Some st -> List.assoc "findings.errors" st
        | None -> fail (pass ^ " should record stats")
      in
      check Alcotest.bool "E0608 reported" true (has_code "E0608" findings);
      check Alcotest.int "verify-comm counts the E0608s"
        (List.length dropped) (errors "verify-comm");
      check Alcotest.int "verify-race counts nothing" 0 (errors "verify-race")

(* ---------------- differential suite ---------------- *)

type corruption = {
  cname : string;
  apply : Compiler.compiled -> Compiler.compiled option;
      (** None = corruption not applicable to this program *)
  harmful : bool;  (** designed to break execution on these seeds *)
  only : string list;
      (** seeds the corruption applies to; [[]] = every seed.  Used when
          a corruption is dynamically observable only on some programs
          (the static verifier may legitimately be {e stronger} than the
          dynamic check, but the differential suite asserts agreement) *)
}

(* Array and scalar names assigned anywhere in the program.  The SPMD
   interpreter initializes input data on every processor, so only
   communication of {e written} data is dynamically observable — the
   harmful corruptions below restrict themselves to it. *)
let written_bases prog =
  let acc = ref [] in
  Ast.iter_program
    (fun s ->
      match s.Ast.node with
      | Ast.Assign (Ast.LArr (b, _), _) -> acc := b :: !acc
      | Ast.Assign (Ast.LVar v, _) -> acc := v :: !acc
      | _ -> ())
    prog;
  !acc

let corruptions =
  [
    {
      cname = "baseline";
      apply = (fun c -> Some c);
      harmful = false;
      only = [];
    };
    {
      cname = "drop-written-comms";
      apply =
        (fun c ->
          let written = written_bases c.Compiler.prog in
          let dropped, kept =
            List.partition
              (fun (cm : Comm.t) ->
                List.mem cm.Comm.data.Aref.base written)
              c.Compiler.comms
          in
          if dropped = [] then None
          else Some { c with Compiler.comms = kept });
      harmful = true;
      only = [];
    };
    {
      cname = "replicate-aligned-reader";
      apply =
        (fun c ->
          (* replicate a privatized def whose statement reads a written,
             partitioned array: every processor then computes it from a
             potentially stale local copy *)
          let d = c.Compiler.decisions in
          let prog = c.Compiler.prog in
          let written = written_bases prog in
          let candidate =
            List.find_map
              (fun (def, m) ->
                match m with
                | Decisions.Priv_aligned _ -> (
                    match Ssa.def_node d.Decisions.ssa def with
                    | None -> None
                    | Some node -> (
                        match Cfg.sid_of_node d.Decisions.ssa.Ssa.cfg node with
                        | None -> None
                        | Some sid -> (
                            match Ast.find_stmt prog sid with
                            | None -> None
                            | Some s ->
                                if
                                  List.exists
                                    (fun (r : Aref.t) ->
                                      r.Aref.subs <> []
                                      && List.mem r.Aref.base written
                                      && Ownership.is_partitioned_spec
                                           (Decisions.directive_spec d r))
                                    (Aref.rhs_refs prog s)
                                then Some def
                                else None)))
                | _ -> None)
              (Decisions.scalar_mappings d)
          in
          match candidate with
          | None -> None
          | Some def ->
              Decisions.unsafe_set_scalar_mapping d def Decisions.Replicated;
              Some c);
      harmful = true;
      (* on TOMCATV / APPSP the replicated temporaries' divergence stays
         confined to non-owner copies that never feed a validated (owned)
         array element, so the dynamic check cannot see it — the static
         E0608 is strictly stronger there.  Restrict the agreement
         assertion to seeds where the race is dynamically observable. *)
      only = [ "fig1"; "dgefa" ];
    };
    {
      cname = "duplicate-first-comm";
      apply =
        (fun c ->
          match c.Compiler.comms with
          | [] -> None
          | cm :: _ ->
              Some { c with Compiler.comms = cm :: c.Compiler.comms });
      harmful = false;
      only = [];
    };
  ]

(* A corrupted schedule can fail dynamically in two ways: the final
   owned state diverges from the sequential run, or a stale scalar used
   as a subscript crashes the interpreter outright (DGEFA's pivot index
   does exactly that when its communication is dropped).  Both count. *)
let dynamic_fails (c : Compiler.compiled) : bool =
  try
    let st =
      Spmd_interp.run ~init:(Init.init c.Compiler.prog)
        ~sir:(Oracles.relower c) c
    in
    Spmd_interp.validate st <> []
  with Memory.Runtime_error _ -> true

let static_fails (c : Compiler.compiled) : bool =
  Verifier.has_errors (verify_exn c)

let differential_seeds =
  [
    ("fig1", fun () -> Fig_examples.fig1 ~n:40 ~p:4 ());
    ("fig2", fun () -> Fig_examples.fig2 ~n:16 ~np:4 ());
    ("tomcatv", fun () -> Tomcatv.program ~n:14 ~niter:2 ~p:4);
    ("dgefa", fun () -> Dgefa.program ~n:12 ~p:4);
    ("appsp2d", fun () -> Appsp.program_2d ~n:8 ~niter:1 ~p1:2 ~p2:2);
  ]

let test_differential () =
  List.iter
    (fun (pname, mk) ->
      List.iter
        (fun corr ->
          if corr.only <> [] && not (List.mem pname corr.only) then ()
          else
          (* fresh compile per corruption: the decision tables are
             mutable and shared *)
          match corr.apply (Compiler.compile_exn (mk ())) with
          | None -> ()
          | Some broken ->
              let s = static_fails broken in
              let d = dynamic_fails broken in
              if corr.harmful && not d then
                fail
                  (Fmt.str
                     "%s/%s: corruption was designed to break execution but \
                      the dynamic check passed"
                     pname corr.cname);
              if s <> d then
                fail
                  (Fmt.str
                     "%s/%s: static verifier %s but dynamic validation %s"
                     pname corr.cname
                     (if s then "flags errors" else "is silent")
                     (if d then "fails" else "passes")))
        corruptions)
    differential_seeds

(* ---------------- verifier pass plumbing ---------------- *)

let test_pass_names () =
  check
    Alcotest.(list string)
    "registered verifier passes"
    [
      "verify-mapping"; "verify-race"; "verify-comm"; "verify-sir";
      "verify-flow";
    ]
    Verifier.pass_names

let test_stats_recorded () =
  let c = fresh (Fig_examples.fig1 ~n:40 ~p:4 ()) in
  match Verifier.verify c with
  | Error ds -> fail (Fmt.str "crash: %a" Diag.pp_list ds)
  | Ok (_, trace) -> (
      check
        Alcotest.(list string)
        "all passes executed" Verifier.pass_names
        (Phpf_driver.Pipeline.executed trace);
      match Phpf_driver.Pipeline.stats_of trace "verify-comm" with
      | None -> fail "verify-comm should record stats"
      | Some st ->
          check Alcotest.bool "matched counter present" true
            (List.mem_assoc "comm.matched" st))

let test_codes_catalogued () =
  check Alcotest.bool "E0603 is a soundness error" true
    (Codes.is_soundness_error "E0603");
  check Alcotest.bool "W0601 is not" false (Codes.is_soundness_error "W0601");
  List.iter
    (fun (code, _) ->
      check Alcotest.bool
        (Fmt.str "%s has E06xx/W06xx shape" code)
        true
        (String.length code = 5
        && (String.sub code 0 3 = "E06" || String.sub code 0 3 = "W06")))
    Codes.all

let () =
  Alcotest.run "verify"
    [
      ( "primitives",
        [
          Alcotest.test_case "spec coverage" `Quick test_covers;
          Alcotest.test_case "pass names" `Quick test_pass_names;
          Alcotest.test_case "stats recorded" `Quick test_stats_recorded;
          Alcotest.test_case "code catalogue" `Quick test_codes_catalogued;
        ] );
      ( "clean",
        [
          Alcotest.test_case "benchmarks lint clean (all variants)" `Quick
            test_benchmarks_lint_clean;
        ] );
      ( "corruptions",
        [
          Alcotest.test_case "dropped comm" `Quick test_drop_comm_flagged;
          Alcotest.test_case "sunk comm" `Quick test_misplaced_comm_flagged;
          Alcotest.test_case "dangling comm" `Quick test_dangling_comm_flagged;
          Alcotest.test_case "redundant comm" `Quick
            test_redundant_comm_warned;
          Alcotest.test_case "replicated aligned def" `Quick
            test_replicate_aligned_flagged;
          Alcotest.test_case "impossible align level" `Quick
            test_bad_align_level_flagged;
          Alcotest.test_case "bad reduction dims" `Quick
            test_bad_repl_dims_flagged;
          Alcotest.test_case "privatized loop-carried scalar" `Quick
            test_scope_violation_flagged;
          Alcotest.test_case "array entry keyed to non-loop" `Quick
            test_structural_array_entry_flagged;
          Alcotest.test_case "align level ignores collapsed dimensions"
            `Quick test_collapsed_dim_align_level;
          Alcotest.test_case "align level checks distributed dimensions"
            `Quick test_distributed_dim_align_level;
          Alcotest.test_case "divergent replication is verify-comm's"
            `Quick test_divergent_counted_in_comm;
        ] );
      ( "differential",
        [
          Alcotest.test_case "static agrees with dynamic on all seeds"
            `Quick test_differential;
        ] );
    ]
