(* Tests for hpf_mapping: grids, distribution math, layout resolution,
   ownership specs and AlignLevel. *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping

let check = Alcotest.check
let fail = Alcotest.fail

let parse src = Sema.check (Parser.parse_string src)

(* ------------------------------------------------------------------ *)
(* Grid                                                                *)
(* ------------------------------------------------------------------ *)

let test_grid_linearize_roundtrip () =
  let g = Grid.make [ 3; 4; 2 ] in
  check Alcotest.int "size" 24 (Grid.size g);
  for pid = 0 to 23 do
    check Alcotest.int
      (Fmt.str "roundtrip %d" pid)
      pid
      (Grid.linearize g (Grid.coords g pid))
  done

let test_grid_line () =
  let g = Grid.make [ 2; 3 ] in
  let line = Grid.line g [| 1; 0 |] 1 in
  check (Alcotest.list Alcotest.int) "line along dim 1" [ 3; 4; 5 ] line;
  let col = Grid.line g [| 1; 2 |] 0 in
  check (Alcotest.list Alcotest.int) "line along dim 0" [ 2; 5 ] col

let test_grid_factorize () =
  check (Alcotest.list Alcotest.int) "16 -> 4x4" [ 4; 4 ]
    (Grid.factorize ~rank:2 16);
  check (Alcotest.list Alcotest.int) "8 -> 4x2" [ 4; 2 ]
    (Grid.factorize ~rank:2 8);
  check (Alcotest.list Alcotest.int) "2 -> 2x1" [ 2; 1 ]
    (Grid.factorize ~rank:2 2);
  List.iter
    (fun p ->
      let f = Grid.factorize ~rank:2 p in
      check Alcotest.int
        (Fmt.str "product %d" p)
        p
        (List.fold_left ( * ) 1 f))
    [ 1; 2; 3; 4; 6; 8; 12; 16; 24; 60 ]

(* ------------------------------------------------------------------ *)
(* Dist                                                                *)
(* ------------------------------------------------------------------ *)

let test_dist_block () =
  let f = Dist.Block 4 in
  check Alcotest.int "pos 0" 0 (Dist.owner_coord f ~nprocs:4 0);
  check Alcotest.int "pos 3" 0 (Dist.owner_coord f ~nprocs:4 3);
  check Alcotest.int "pos 4" 1 (Dist.owner_coord f ~nprocs:4 4);
  check Alcotest.int "pos 15" 3 (Dist.owner_coord f ~nprocs:4 15);
  check Alcotest.int "pos 17 clamps" 3 (Dist.owner_coord f ~nprocs:4 17)

let test_dist_cyclic () =
  let f = Dist.Cyclic in
  check Alcotest.int "pos 0" 0 (Dist.owner_coord f ~nprocs:3 0);
  check Alcotest.int "pos 4" 1 (Dist.owner_coord f ~nprocs:3 4);
  check Alcotest.int "pos 5" 2 (Dist.owner_coord f ~nprocs:3 5)

let test_dist_block_cyclic () =
  let f = Dist.Block_cyclic 2 in
  check Alcotest.int "pos 0" 0 (Dist.owner_coord f ~nprocs:2 0);
  check Alcotest.int "pos 1" 0 (Dist.owner_coord f ~nprocs:2 1);
  check Alcotest.int "pos 2" 1 (Dist.owner_coord f ~nprocs:2 2);
  check Alcotest.int "pos 4" 0 (Dist.owner_coord f ~nprocs:2 4)

let test_dist_local_count_sums () =
  List.iter
    (fun (f, nprocs, extent) ->
      let total = ref 0 in
      for c = 0 to nprocs - 1 do
        total := !total + Dist.local_count f ~nprocs ~extent c
      done;
      match f with
      | Dist.Block_cyclic _ ->
          check Alcotest.bool "covers" true (!total >= extent)
      | _ -> check Alcotest.int "sums to extent" extent !total)
    [
      (Dist.Block 4, 4, 16);
      (Dist.Block 5, 4, 17);
      (Dist.Cyclic, 3, 10);
      (Dist.Cyclic, 4, 16);
      (Dist.Block_cyclic 2, 2, 12);
    ]

let test_dist_of_ast () =
  check Alcotest.bool "block size ceil" true
    (Dist.of_ast_format ~extent:10 ~nprocs:4 Ast.Block = Some (Dist.Block 3));
  check Alcotest.bool "star collapses" true
    (Dist.of_ast_format ~extent:10 ~nprocs:4 Ast.Star = None)

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let env_of src = Layout.resolve (parse src)

let test_layout_distribute () =
  let env =
    env_of
      {|
program t
real a(16,16)
!hpf$ processors p(2,2)
!hpf$ distribute a(block, cyclic) onto p
end
|}
  in
  let l = Layout.layout_of env "a" in
  check Alcotest.bool "partitioned" true (Layout.is_partitioned l);
  match l.Layout.bindings with
  | [| Layout.Mapped m0; Layout.Mapped m1 |] ->
      check Alcotest.int "dim0" 0 m0.array_dim;
      check Alcotest.bool "block 8" true (m0.fmt = Dist.Block 8);
      check Alcotest.int "dim1" 1 m1.array_dim;
      check Alcotest.bool "cyclic" true (m1.fmt = Dist.Cyclic)
  | _ -> fail "bindings shape"

let test_layout_star_dim () =
  let env =
    env_of
      {|
program t
real a(16,16)
!hpf$ processors p(2)
!hpf$ distribute a(*, block) onto p
end
|}
  in
  let l = Layout.layout_of env "a" in
  match l.Layout.bindings with
  | [| Layout.Mapped m |] ->
      check Alcotest.int "second dim selects" 1 m.array_dim
  | _ -> fail "one grid dim"

let test_layout_align_identity () =
  let env =
    env_of
      {|
program t
real a(16), b(16)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ align b(i) with a(i)
end
|}
  in
  let la = Layout.layout_of env "a" and lb = Layout.layout_of env "b" in
  check Alcotest.bool "same binding" true
    (la.Layout.bindings = lb.Layout.bindings)

let test_layout_align_offset () =
  let env =
    env_of
      {|
program t
real a(16), b(16)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ align b(i) with a(i + 2)
end
|}
  in
  match (Layout.layout_of env "b").Layout.bindings with
  | [| Layout.Mapped m |] ->
      check Alcotest.int "offset 2" 2 m.offset;
      check Alcotest.int "stride 1" 1 m.stride
  | _ -> fail "binding"

let test_layout_align_star_replicates () =
  let env =
    env_of
      {|
program t
real a(16), e(16)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ align e(i) with a(*)
end
|}
  in
  check Alcotest.bool "replicated" true
    (Layout.is_fully_replicated (Layout.layout_of env "e"))

let test_layout_align_const_fixes () =
  let env =
    env_of
      {|
program t
real a(16), w(8)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ align w(i) with a(9)
end
|}
  in
  match (Layout.layout_of env "w").Layout.bindings with
  | [| Layout.Fixed 2 |] -> ()
  | [| b |] -> fail (Fmt.str "expected Fixed 2, got %a" Layout.pp_binding b)
  | _ -> fail "rank"

let test_layout_align_chain () =
  let env =
    env_of
      {|
program t
real a(16), b(16), c(16)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ align c(i) with b(i + 1)
!hpf$ align b(i) with a(i + 1)
end
|}
  in
  match (Layout.layout_of env "c").Layout.bindings with
  | [| Layout.Mapped m |] -> check Alcotest.int "composed offset" 2 m.offset
  | _ -> fail "binding"

let test_layout_undistributed_replicated () =
  let env =
    env_of
      {|
program t
real a(16), z(16)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
end
|}
  in
  check Alcotest.bool "z replicated" true
    (Layout.is_fully_replicated (Layout.layout_of env "z"))

let test_layout_grid_override () =
  let p =
    parse
      {|
program t
real a(16)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
end
|}
  in
  let env = Layout.resolve ~grid_override:[ 8 ] p in
  check Alcotest.int "overridden" 8 (Grid.size env.Layout.grid)

(* ------------------------------------------------------------------ *)
(* Ownership                                                           *)
(* ------------------------------------------------------------------ *)

let fig1_env () =
  let p = Sema.check (Hpf_benchmarks.Fig_examples.fig1 ~n:100 ~p:4 ()) in
  (p, Layout.resolve p)

let test_ownership_concrete () =
  let _, env = fig1_env () in
  check (Alcotest.list Alcotest.int) "a(1) on p0" [ 0 ]
    (Oracles.element_owner_pids env "a" [| 1 |]);
  check (Alcotest.list Alcotest.int) "a(26) on p1" [ 1 ]
    (Oracles.element_owner_pids env "a" [| 26 |]);
  check (Alcotest.list Alcotest.int) "a(100) on p3" [ 3 ]
    (Oracles.element_owner_pids env "a" [| 100 |]);
  check (Alcotest.list Alcotest.int) "e replicated" [ 0; 1; 2; 3 ]
    (Oracles.element_owner_pids env "e" [| 7 |])

let test_ownership_spec_affine () =
  let _, env = fig1_env () in
  let spec =
    Ownership.owner_spec env ~indices:[ "i" ] "a"
      [ Ast.Bin (Add, Var "i", Int 1) ]
  in
  match spec with
  | [| Ownership.O_affine { pos; _ } |] ->
      check Alcotest.int "coeff" 1 (Affine.coeff pos "i");
      check Alcotest.int "const" 0 pos.Affine.const
  | _ -> fail "affine spec"

let test_ownership_relate_same_shift () =
  let _, env = fig1_env () in
  let s1 = Ownership.owner_spec env ~indices:[ "i" ] "a" [ Ast.Var "i" ] in
  let s2 = Ownership.owner_spec env ~indices:[ "i" ] "b" [ Ast.Var "i" ] in
  let s3 =
    Ownership.owner_spec env ~indices:[ "i" ] "a"
      [ Ast.Bin (Add, Var "i", Int 1) ]
  in
  check Alcotest.bool "aligned: same" true
    (Ownership.no_comm (Ownership.relate s1 s2));
  (match Ownership.relate s1 s3 with
  | [| Ownership.Shift 1 |] -> ()
  | _ -> fail "shift +1");
  let rep = Ownership.owner_spec env ~indices:[ "i" ] "e" [ Ast.Var "i" ] in
  check Alcotest.bool "replicated producer: local" true
    (Ownership.no_comm (Ownership.relate rep s1))

let test_ownership_to_all () =
  let _, env = fig1_env () in
  let s1 = Ownership.owner_spec env ~indices:[ "i" ] "a" [ Ast.Var "i" ] in
  let all = Ownership.all_procs env in
  match Ownership.relate s1 all with
  | [| Ownership.To_all |] -> ()
  | _ -> fail "to_all"

let test_ownership_unknown_subscript () =
  let p =
    parse
      {|
program t
real a(16)
integer w(16)
real x
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
do i = 1, 16
  x = a(w(i))
end do
end
|}
  in
  let env = Layout.resolve p in
  let spec =
    Ownership.owner_spec env ~indices:[ "i" ] "a"
      [ Ast.Arr ("w", [ Ast.Var "i" ]) ]
  in
  match spec with [| Ownership.O_unknown |] -> () | _ -> fail "unknown"

let test_ownership_single_proc_local () =
  let p =
    parse
      {|
program t
real a(16)
!hpf$ processors p(1)
!hpf$ distribute a(block) onto p
end
|}
  in
  let env = Layout.resolve p in
  let s1 = Ownership.owner_spec env ~indices:[ "i" ] "a" [ Ast.Var "i" ] in
  let s2 =
    Ownership.owner_spec env ~indices:[ "i" ] "a"
      [ Ast.Bin (Add, Var "i", Int 1) ]
  in
  check Alcotest.bool "P=1: no comm" true
    (Ownership.no_comm (Ownership.relate s1 s2))

let test_ownership_owns () =
  let _, env = fig1_env () in
  check Alcotest.bool "p0 owns a(10)" true (Ownership.owns env "a" [| 10 |] 0);
  check Alcotest.bool "p1 does not own a(10)" false
    (Ownership.owns env "a" [| 10 |] 1)

(* ------------------------------------------------------------------ *)
(* AlignLevel (paper Fig. 4)                                           *)
(* ------------------------------------------------------------------ *)

let test_align_level_fig4 () =
  let p = Sema.check (Hpf_benchmarks.Fig_examples.fig4 ()) in
  let env = Layout.resolve p in
  let nest = Nest.build p in
  let a_sid = ref 0 and b_sid = ref 0 in
  Ast.iter_program
    (fun s ->
      match s.node with
      | Ast.Assign (Ast.LArr ("a", _), _) -> a_sid := s.sid
      | Ast.Assign (Ast.LArr ("b", _), _) -> b_sid := s.sid
      | _ -> ())
    p;
  let a_ref =
    { Aref.sid = !a_sid; base = "a"; subs = [ Ast.Var "i"; Ast.Var "j"; Ast.Var "k" ] }
  in
  let b_ref =
    { Aref.sid = !b_sid; base = "b"; subs = [ Ast.Var "s"; Ast.Var "j"; Ast.Var "k" ] }
  in
  check Alcotest.int "AlignLevel a(i,j,k) = 2" 2
    (Align_level.align_level env nest a_ref);
  check Alcotest.int "AlignLevel b(s,j,k) = 3" 3
    (Align_level.align_level env nest b_ref)

let test_var_level () =
  let p = Sema.check (Hpf_benchmarks.Fig_examples.fig4 ()) in
  let nest = Nest.build p in
  let b_sid = ref 0 in
  Ast.iter_program
    (fun s ->
      match s.node with
      | Ast.Assign (Ast.LArr ("b", _), _) -> b_sid := s.sid
      | _ -> ())
    p;
  check Alcotest.int "VarLevel(k) = 3" 3
    (Align_level.var_level p nest ~sid:!b_sid "k");
  check Alcotest.int "VarLevel(s) = 2 (assigned in j loop)" 2
    (Align_level.var_level p nest ~sid:!b_sid "s");
  check Alcotest.int "VarLevel(n) = 0 (parameter)" 0
    (Align_level.var_level p nest ~sid:!b_sid "n")

let test_subscript_align_level () =
  let p = Sema.check (Hpf_benchmarks.Fig_examples.fig4 ()) in
  let nest = Nest.build p in
  let b_sid = ref 0 in
  Ast.iter_program
    (fun s ->
      match s.node with
      | Ast.Assign (Ast.LArr ("b", _), _) -> b_sid := s.sid
      | _ -> ())
    p;
  check Alcotest.int "SAL(j) = 2" 2
    (Align_level.subscript_align_level p nest ~sid:!b_sid (Ast.Var "j"));
  check Alcotest.int "SAL(s) = 3" 3
    (Align_level.subscript_align_level p nest ~sid:!b_sid (Ast.Var "s"))

let test_partial_align_level_fig6 () =
  let p = Sema.check (Hpf_benchmarks.Fig_examples.fig6 ()) in
  let env = Layout.resolve p in
  let nest = Nest.build p in
  let rsd_sid = ref 0 in
  Ast.iter_program
    (fun s ->
      match s.node with
      | Ast.Assign (Ast.LArr ("rsd", _), _) when !rsd_sid = 0 ->
          rsd_sid := s.sid
      | _ -> ())
    p;
  let r =
    {
      Aref.sid = !rsd_sid;
      base = "rsd";
      subs = [ Ast.Var "i"; Ast.Var "j"; Ast.Var "k" ];
    }
  in
  let full = Align_level.align_level env nest r in
  let restricted = Align_level.align_level ~grid_dims:[ 1 ] env nest r in
  check Alcotest.bool "restricted < full" true (restricted < full);
  check Alcotest.int "full = 3 (j at level 3)" 3 full;
  check Alcotest.int "restricted = 2 (k at level 2)" 2 restricted

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Memory footprint (Layout.local_elems)                               *)
(* ------------------------------------------------------------------ *)

let test_local_elems_block_cyclic () =
  let env =
    env_of
      {|
program t
real a(16,12)
!hpf$ processors p(2,3)
!hpf$ distribute a(block, cyclic) onto p
end
|}
  in
  (* dim0: block of 8 over 2 coords; dim1: cyclic 12 over 3 coords = 4 *)
  List.iter
    (fun coords ->
      check Alcotest.int
        (Fmt.str "local at (%d,%d)" coords.(0) coords.(1))
        (8 * 4)
        (Layout.local_elems env "a" coords))
    [ [| 0; 0 |]; [| 1; 2 |]; [| 0; 1 |] ]

let test_local_elems_replicated_full () =
  let env =
    env_of
      {|
program t
real a(16), z(10,10)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
end
|}
  in
  check Alcotest.int "replicated z is full everywhere" 100
    (Layout.local_elems env "z" [| 2 |]);
  ()

let test_max_local_elems () =
  let env =
    env_of
      {|
program t
real a(17)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
end
|}
  in
  (* block size ceil(17/4) = 5; the last processor holds the overflow:
     max is 5 *)
  check Alcotest.int "max over procs" 5 (Layout.max_local_elems env)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "mapping"
    [
      ( "grid",
        [
          Alcotest.test_case "linearize roundtrip" `Quick
            test_grid_linearize_roundtrip;
          Alcotest.test_case "line" `Quick test_grid_line;
          Alcotest.test_case "factorize" `Quick test_grid_factorize;
        ] );
      ( "dist",
        [
          Alcotest.test_case "block" `Quick test_dist_block;
          Alcotest.test_case "cyclic" `Quick test_dist_cyclic;
          Alcotest.test_case "block-cyclic" `Quick test_dist_block_cyclic;
          Alcotest.test_case "local counts" `Quick test_dist_local_count_sums;
          Alcotest.test_case "of ast" `Quick test_dist_of_ast;
        ] );
      ( "layout",
        [
          Alcotest.test_case "distribute" `Quick test_layout_distribute;
          Alcotest.test_case "star dim" `Quick test_layout_star_dim;
          Alcotest.test_case "align identity" `Quick test_layout_align_identity;
          Alcotest.test_case "align offset" `Quick test_layout_align_offset;
          Alcotest.test_case "align star" `Quick
            test_layout_align_star_replicates;
          Alcotest.test_case "align const" `Quick test_layout_align_const_fixes;
          Alcotest.test_case "align chain" `Quick test_layout_align_chain;
          Alcotest.test_case "undistributed replicated" `Quick
            test_layout_undistributed_replicated;
          Alcotest.test_case "grid override" `Quick test_layout_grid_override;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "concrete" `Quick test_ownership_concrete;
          Alcotest.test_case "affine spec" `Quick test_ownership_spec_affine;
          Alcotest.test_case "relate same/shift" `Quick
            test_ownership_relate_same_shift;
          Alcotest.test_case "to all" `Quick test_ownership_to_all;
          Alcotest.test_case "unknown subscript" `Quick
            test_ownership_unknown_subscript;
          Alcotest.test_case "single proc local" `Quick
            test_ownership_single_proc_local;
          Alcotest.test_case "owns" `Quick test_ownership_owns;
        ] );
      ( "memory",
        [
          Alcotest.test_case "block x cyclic" `Quick
            test_local_elems_block_cyclic;
          Alcotest.test_case "replicated full" `Quick
            test_local_elems_replicated_full;
          Alcotest.test_case "max over procs" `Quick test_max_local_elems;
        ] );
      ( "align-level",
        [
          Alcotest.test_case "fig4" `Quick test_align_level_fig4;
          Alcotest.test_case "var level" `Quick test_var_level;
          Alcotest.test_case "subscript align level" `Quick
            test_subscript_align_level;
          Alcotest.test_case "partial restriction (fig6)" `Quick
            test_partial_align_level_fig6;
        ] );
    ]
