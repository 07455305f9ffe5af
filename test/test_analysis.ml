(* Tests for hpf_analysis: affine forms, CFG, dominators, SSA, liveness,
   constant propagation, induction variables, reductions, dependence
   tests, privatizability. *)

open Hpf_lang
open Hpf_analysis

let check = Alcotest.check
let fail = Alcotest.fail

let parse src = Sema.check (Parser.parse_string src)

(* statement lookup helpers *)
let sid_of_assign p lhs_var =
  let found = ref None in
  Ast.iter_program
    (fun s ->
      match s.node with
      | Ast.Assign (Ast.LVar v, _) when v = lhs_var && !found = None ->
          found := Some s.sid
      | _ -> ())
    p;
  match !found with Some s -> s | None -> fail ("no assign to " ^ lhs_var)

let sid_of_array_assign p base =
  let found = ref None in
  Ast.iter_program
    (fun s ->
      match s.node with
      | Ast.Assign (Ast.LArr (a, _), _) when a = base && !found = None ->
          found := Some s.sid
      | _ -> ())
    p;
  match !found with Some s -> s | None -> fail ("no assign to " ^ base)

(* ------------------------------------------------------------------ *)
(* Affine                                                              *)
(* ------------------------------------------------------------------ *)

let aff p indices e = Affine.of_subscript p ~indices e

let test_affine_basic () =
  let p = parse "program t\nparameter n = 10\nreal x\nx = 1.0\nend" in
  let e : Ast.expr = Bin (Add, Bin (Mul, Int 2, Var "i"), Var "n") in
  match aff p [ "i" ] e with
  | Some a ->
      check Alcotest.int "const" 10 a.Affine.const;
      check Alcotest.int "coeff i" 2 (Affine.coeff a "i")
  | None -> fail "should be affine"

let test_affine_sub_neg () =
  let p = parse "program t\nreal x\nx = 1.0\nend" in
  let e : Ast.expr = Bin (Sub, Var "i", Bin (Mul, Int 3, Var "j")) in
  match aff p [ "i"; "j" ] e with
  | Some a ->
      check Alcotest.int "coeff i" 1 (Affine.coeff a "i");
      check Alcotest.int "coeff j" (-3) (Affine.coeff a "j")
  | None -> fail "affine"

let test_affine_rejects () =
  let p = parse "program t\nreal x\nreal b(4)\nx = 1.0\nend" in
  check Alcotest.bool "i*j rejected" true
    (aff p [ "i"; "j" ] (Bin (Mul, Var "i", Var "j")) = None);
  check Alcotest.bool "array ref rejected" true
    (aff p [ "i" ] (Arr ("b", [ Var "i" ])) = None);
  check Alcotest.bool "non-index scalar rejected" true
    (aff p [ "i" ] (Var "x") = None)

let test_affine_roundtrip () =
  let a = { Affine.const = 3; terms = [ ("i", 2); ("j", -1) ] } in
  let p = parse "program t\nreal x\nx = 1.0\nend" in
  match
    Affine.of_expr
      ~is_index:(fun v -> v = "i" || v = "j")
      ~const_of:(fun v -> Ast.param_value p v)
      (Affine.to_expr a)
  with
  | Some a' -> check Alcotest.bool "roundtrip" true (Affine.equal a a')
  | None -> fail "roundtrip affine"

let test_affine_algebra () =
  let a = { Affine.const = 1; terms = [ ("i", 2) ] } in
  let b = { Affine.const = -1; terms = [ ("i", -2); ("j", 1) ] } in
  let s = Affine.add a b in
  check Alcotest.int "sum const" 0 s.Affine.const;
  check Alcotest.int "i cancels" 0 (Affine.coeff s "i");
  check Alcotest.int "j" 1 (Affine.coeff s "j");
  check Alcotest.bool "sub self is zero" true
    (Affine.equal (Affine.sub a a) (Affine.constant 0))

(* ------------------------------------------------------------------ *)
(* CFG                                                                 *)
(* ------------------------------------------------------------------ *)

let loop_src =
  {|
program t
real a(10)
real x
do i = 1, 10
  x = a(i)
  if (x > 0.0) then
    a(i) = x * 2.0
  end if
end do
x = 0.0
end
|}

let test_cfg_structure () =
  let p = parse loop_src in
  let g = Cfg.build p in
  check Alcotest.bool "has nodes" true (Cfg.n_nodes g >= 10);
  let reach = Cfg.is_reachable g in
  Array.iteri
    (fun i r ->
      if r && i <> g.Cfg.exit_ then
        check Alcotest.bool
          (Fmt.str "node %d has succ" i)
          true
          ((Cfg.node g i).Cfg.succs <> []))
    reach

let test_cfg_back_edge () =
  let p = parse loop_src in
  let g = Cfg.build p in
  let back = ref 0 in
  for i = 0 to Cfg.n_nodes g - 1 do
    List.iter
      (fun s -> if Ssa.is_back_edge g ~pred:i ~node:s then incr back)
      (Cfg.node g i).Cfg.succs
  done;
  check Alcotest.int "one back edge" 1 !back

let test_cfg_exit_cycle_edges () =
  let p =
    parse
      {|
program t
real x
do i = 1, 10
  if (x > 0.0) exit
  if (x < 0.0) cycle
  x = x + 1.0
end do
end
|}
  in
  let g = Cfg.build p in
  let kinds = ref [] in
  Array.iter
    (fun (n : Cfg.node) ->
      match n.Cfg.kind with
      | Cfg.Simple { node = Ast.Exit _; _ } -> kinds := `Exit :: !kinds
      | Cfg.Simple { node = Ast.Cycle _; _ } -> kinds := `Cycle :: !kinds
      | _ -> ())
    g.Cfg.nodes;
  check Alcotest.int "exit+cycle nodes" 2 (List.length !kinds)

let test_cfg_defs_uses () =
  let p = parse loop_src in
  let g = Cfg.build p in
  let x_sid = sid_of_assign p "x" in
  match Cfg.nodes_of_sid g x_sid with
  | n :: _ ->
      check (Alcotest.list Alcotest.string) "defs" [ "x" ] (Cfg.defs g n);
      check (Alcotest.list Alcotest.string) "uses" [ "a"; "i" ]
        (Cfg.uses g n)
  | [] -> fail "no node for x assign"

let test_cfg_array_update_semantics () =
  let p = parse loop_src in
  let g = Cfg.build p in
  let a_sid = sid_of_array_assign p "a" in
  match Cfg.nodes_of_sid g a_sid with
  | n :: _ ->
      check Alcotest.bool "array def" true (List.mem "a" (Cfg.defs g n));
      check Alcotest.bool "array also used (update)" true
        (List.mem "a" (Cfg.uses g n))
  | [] -> fail "no node"

(* ------------------------------------------------------------------ *)
(* Dominators                                                          *)
(* ------------------------------------------------------------------ *)

let test_dom_entry_dominates_all () =
  let p = parse loop_src in
  let g = Cfg.build p in
  let d = Dom.compute g in
  List.iter
    (fun i ->
      check Alcotest.bool
        (Fmt.str "entry dom %d" i)
        true
        (Dom.dominates d g.Cfg.entry i))
    (Cfg.reverse_postorder g)

let test_dom_idom_dominates () =
  let p = parse loop_src in
  let g = Cfg.build p in
  let d = Dom.compute g in
  List.iter
    (fun i ->
      if i <> g.Cfg.entry then
        check Alcotest.bool
          (Fmt.str "idom(%d) dominates" i)
          true
          (Dom.dominates d d.Dom.idom.(i) i))
    (Cfg.reverse_postorder g)

let test_dom_loop_head_frontier () =
  let p = parse loop_src in
  let g = Cfg.build p in
  let d = Dom.compute g in
  let head =
    Array.to_list g.Cfg.nodes
    |> List.find_map (fun (n : Cfg.node) ->
           match n.Cfg.kind with
           | Cfg.Loop_head _ -> Some n.Cfg.id
           | _ -> None)
  in
  match head with
  | Some h ->
      let some_body_has_h_in_df =
        Array.exists
          (fun (n : Cfg.node) -> List.mem h d.Dom.frontiers.(n.Cfg.id))
          g.Cfg.nodes
      in
      check Alcotest.bool "head in some frontier" true some_body_has_h_in_df
  | None -> fail "no loop head"

(* ------------------------------------------------------------------ *)
(* SSA                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ssa_unique_reaching_def () =
  let p = parse loop_src in
  let g = Cfg.build p in
  let ssa = Ssa.build g in
  Ssa.fold_uses ssa
    (fun ~node:_ ~var d () ->
      check Alcotest.string "var match" var (Ssa.def_var ssa d))
    ()

let test_ssa_phi_at_loop_head () =
  let p = parse loop_src in
  let g = Cfg.build p in
  let ssa = Ssa.build g in
  let has_phi =
    List.exists
      (fun node ->
        Ssa.phi_at ssa ~node ~var:"x" <> None
        &&
        match (Cfg.node g node).Cfg.kind with
        | Cfg.Loop_head _ -> true
        | _ -> false)
      (List.init (Cfg.n_nodes g) Fun.id)
  in
  check Alcotest.bool "phi for x at head" true has_phi

let test_ssa_phi_args_complete () =
  let p = parse loop_src in
  let g = Cfg.build p in
  let ssa = Ssa.build g in
  let reach = Cfg.is_reachable g in
  Array.iter
    (function
      | Ssa.Phi { node; args; _ } ->
          let preds =
            List.filter (fun pr -> reach.(pr)) (Cfg.node g node).Cfg.preds
          in
          check Alcotest.int
            (Fmt.str "phi at %d args" node)
            (List.length preds) (List.length args)
      | Ssa.Entry_def _ | Ssa.Node_def _ -> ())
    ssa.Ssa.defs

let test_ssa_reached_uses_same_iter () =
  let p = Sema.check (Hpf_benchmarks.Fig_examples.fig1 ()) in
  let g = Cfg.build p in
  let ssa = Ssa.build g in
  let z_sid = sid_of_assign p "z" in
  let node = List.hd (Cfg.nodes_of_sid g z_sid) in
  match Ssa.def_at ssa ~node ~var:"z" with
  | Some d ->
      let uses = Ssa.reached_uses ssa d in
      check Alcotest.int "two uses" 2 (List.length uses);
      List.iter
        (fun (u : Ssa.use_info) ->
          check Alcotest.bool "no back edge" true (u.Ssa.back_edges = []))
        uses
  | None -> fail "no def of z"

let test_ssa_back_edge_flow () =
  let p =
    parse
      {|
program t
real s
s = 0.0
do i = 1, 10
  s = s + 1.0
end do
end
|}
  in
  let g = Cfg.build p in
  let ssa = Ssa.build g in
  let defs = Ssa.defs_of_var ssa "s" in
  check Alcotest.int "two defs of s" 2 (List.length defs);
  let inner = List.nth defs 1 in
  let uses = Ssa.reached_uses ssa inner in
  check Alcotest.bool "crosses back edge" true
    (List.exists (fun (u : Ssa.use_info) -> u.Ssa.back_edges <> []) uses)

(* loop-head CFG nodes keyed by the loop's statement id, outermost (=
   textually first, smallest sid) first *)
let loop_heads g =
  let acc = ref [] in
  for i = 0 to Cfg.n_nodes g - 1 do
    match (Cfg.node g i).Cfg.kind with
    | Cfg.Loop_head s -> acc := (s.Ast.sid, i) :: !acc
    | _ -> ()
  done;
  List.sort compare !acc

(* the sid of the last textual assignment to [lhs_var] *)
let last_sid_of_assign p lhs_var =
  let found = ref None in
  Ast.iter_program
    (fun s ->
      match s.node with
      | Ast.Assign (Ast.LVar v, _) when v = lhs_var -> found := Some s.sid
      | _ -> ())
    p;
  match !found with Some s -> s | None -> fail ("no assign to " ^ lhs_var)

(* the last textual def of [var] that sits on a real statement node *)
let body_def ssa var =
  match List.rev (Ssa.defs_of_var ssa var) with
  | d :: _ -> d
  | [] -> fail ("no def of " ^ var)

let uses_at g uses sid =
  List.filter
    (fun (u : Ssa.use_info) -> Cfg.sid_of_node g u.Ssa.use_node = Some sid)
    uses

(* An inner-loop accumulator's value reaches the statement after the
   inner loop across the inner back edge only: the outer head's φ for it
   is dead (re-initialised each outer iteration), so the outer back edge
   is never crossed.  The outer accumulator, untouched by the inner
   loop, crosses only the outer back edge. *)
let test_ssa_nested_back_edges () =
  let p =
    parse
      {|
program t
real s, u, x
s = 0.0
do i = 1, 10
  u = 0.0
  do j = 1, 10
    u = u + 1.0
  end do
  s = s + u
end do
x = s
end
|}
  in
  let g = Cfg.build p in
  let ssa = Ssa.build g in
  let heads = loop_heads g in
  check Alcotest.int "two loops" 2 (List.length heads);
  let outer_head = snd (List.nth heads 0) in
  let inner_head = snd (List.nth heads 1) in
  let u_def = body_def ssa "u" in
  let u_uses = Ssa.reached_uses ssa u_def in
  let s_sid = last_sid_of_assign p "s" in
  (match uses_at g u_uses s_sid with
  | [ u ] ->
      check Alcotest.bool "u crosses inner head" true
        (List.mem inner_head u.Ssa.back_edges);
      check Alcotest.bool "u does not cross outer head" false
        (List.mem outer_head u.Ssa.back_edges)
  | l -> fail (Fmt.str "expected one use of u at s%d, got %d" s_sid (List.length l)));
  let s_def = body_def ssa "s" in
  let s_uses = Ssa.reached_uses ssa s_def in
  List.iter
    (fun (u : Ssa.use_info) ->
      check Alcotest.bool "s never crosses inner head" false
        (List.mem inner_head u.Ssa.back_edges);
      if Cfg.sid_of_node g u.Ssa.use_node = Some s_sid then
        check Alcotest.bool "s rhs use crosses outer head" true
          (List.mem outer_head u.Ssa.back_edges))
    s_uses;
  check Alcotest.bool "s reaches its own rhs" true
    (uses_at g s_uses s_sid <> [])

(* A value defined in a loop body and read after the loop is reached on
   two kinds of path once the body contains an EXIT: through the head's
   trip test (crossing the back edge) and through the EXIT jump straight
   to the join (crossing nothing).  [reached_uses] unions the crossed
   sets, so the conservative answer — the back edge IS crossed — must
   survive the union. *)
let test_ssa_exit_union_back_edges () =
  let p =
    parse
      {|
program t
real s, x
s = 0.0
do i = 1, 10
  s = s + 1.0
  if (s > 5.0) exit
end do
x = s
end
|}
  in
  let g = Cfg.build p in
  let ssa = Ssa.build g in
  let heads = loop_heads g in
  check Alcotest.int "one loop" 1 (List.length heads);
  let head = snd (List.hd heads) in
  let s_def = body_def ssa "s" in
  let uses = Ssa.reached_uses ssa s_def in
  let x_sid = sid_of_assign p "x" in
  match uses_at g uses x_sid with
  | [ u ] ->
      check Alcotest.bool "after-loop use survives the union" true
        (List.mem head u.Ssa.back_edges)
  | l -> fail (Fmt.str "expected one use of s after the loop, got %d" (List.length l))

(* CYCLE jumps to the step, so it bypasses the rest of the body but
   still funnels values through the head's φ.  A per-iteration temporary
   defined before the CYCLE reaches its fall-through use without any
   back-edge crossing; the accumulator defined after the CYCLE reaches
   its own rhs only across the head. *)
let test_ssa_cycle_back_edges () =
  let p =
    parse
      {|
program t
real s, u, x
real a(10)
s = 0.0
do i = 1, 10
  u = a(i)
  if (u > 5.0) cycle
  s = s + u
end do
x = s
end
|}
  in
  let g = Cfg.build p in
  let ssa = Ssa.build g in
  let heads = loop_heads g in
  let head = snd (List.hd heads) in
  let u_def = body_def ssa "u" in
  let u_uses = Ssa.reached_uses ssa u_def in
  check Alcotest.bool "u has uses" true (u_uses <> []);
  List.iter
    (fun (u : Ssa.use_info) ->
      check Alcotest.bool "per-iteration u never crosses the head" true
        (u.Ssa.back_edges = []))
    u_uses;
  let s_def = body_def ssa "s" in
  let s_uses = Ssa.reached_uses ssa s_def in
  let s_sid = last_sid_of_assign p "s" in
  (match uses_at g s_uses s_sid with
  | [ u ] ->
      check Alcotest.bool "accumulator crosses the head via CYCLE and step"
        true
        (List.mem head u.Ssa.back_edges)
  | l -> fail (Fmt.str "expected one rhs use of s, got %d" (List.length l)));
  match uses_at g s_uses (sid_of_assign p "x") with
  | [ u ] ->
      check Alcotest.bool "after-loop use crosses the head" true
        (List.mem head u.Ssa.back_edges)
  | l -> fail (Fmt.str "expected one after-loop use of s, got %d" (List.length l))

let test_ssa_reaching_defs_merge () =
  let p =
    parse
      {|
program t
real x, y
do i = 1, 10
  if (y > 0.0) then
    x = 1.0
  else
    x = 2.0
  end if
  y = x
end do
end
|}
  in
  let g = Cfg.build p in
  let ssa = Ssa.build g in
  let y_sid = sid_of_assign p "y" in
  let node = List.hd (Cfg.nodes_of_sid g y_sid) in
  let rds = Ssa.reaching_defs ssa ~node ~var:"x" in
  check Alcotest.int "two reaching defs" 2 (List.length rds)

(* One scalar defined in two inner loops under an outer loop.  Every
   loop keeps its zero-trip exit in the CFG, so the second loop's head
   φ can pass the first loop's value on unchanged, and the three head φs
   feed each other around the outer loop: a φ cycle whose only internal
   label is the outer head.  The φ after the loop is fed from that
   cycle, so its use collects the outer head too.  Each use collects
   the heads crossed on any path to it: the first def never crosses the
   second loop's head (the second body kills it) and the second def
   never the first's. *)
let test_ssa_two_inner_loops_zero_trip () =
  let p =
    parse
      {|
program t
real s, x, y
real a(10), b(10), c(10)
do i = 1, 10
  do j = 1, 10
    s = a(j)
    b(j) = s
  end do
  do k = 1, 10
    c(k) = s
    s = a(k)
  end do
  x = s
end do
if (x > 0.0) then
  s = 0.0
end if
y = s
end
|}
  in
  let g = Cfg.build p in
  let ssa = Ssa.build g in
  let head_i, head_j, head_k =
    match loop_heads g with
    | [ (_, i); (_, j); (_, k) ] -> (i, j, k)
    | l -> fail (Fmt.str "expected three loops, got %d" (List.length l))
  in
  let s1, s2 =
    match Ssa.defs_of_var ssa "s" with
    | [ s1; s2; _ ] -> (s1, s2)
    | l -> fail (Fmt.str "expected three defs of s, got %d" (List.length l))
  in
  let b_in_j = sid_of_array_assign p "b" in
  let c_in_k = sid_of_array_assign p "c" in
  let x_sid = sid_of_assign p "x" and y_sid = sid_of_assign p "y" in
  let crossed def sid =
    match uses_at g (Ssa.reached_uses ssa def) sid with
    | [ u ] -> u.Ssa.back_edges
    | l -> fail (Fmt.str "expected one use at s%d, got %d" sid (List.length l))
  in
  let heads = Alcotest.(list int) in
  let sorted = List.sort compare in
  check heads "s1 at b(j) = s: same iteration" [] (crossed s1 b_in_j);
  check heads "s1 at c(k) = s: inner j and outer" (sorted [ head_i; head_j ])
    (crossed s1 c_in_k);
  check heads "s1 at x = s: inner j and outer" (sorted [ head_i; head_j ])
    (crossed s1 x_sid);
  check heads "s2 at c(k) = s: inner k and outer" (sorted [ head_i; head_k ])
    (crossed s2 c_in_k);
  check heads "s2 at x = s: inner k and outer" (sorted [ head_i; head_k ])
    (crossed s2 x_sid);
  check heads "s1 after the loop: inner j and outer"
    (sorted [ head_i; head_j ]) (crossed s1 y_sid);
  check heads "s2 after the loop: inner k and outer"
    (sorted [ head_i; head_k ]) (crossed s2 y_sid);
  check Alcotest.bool "s2 never reaches b(j) = s" true
    (uses_at g (Ssa.reached_uses ssa s2) b_in_j = []);
  List.iter
    (fun d ->
      check Alcotest.bool "table = walk" true
        (Ssa.reached_uses ssa d = Oracles.reached_uses ssa d))
    [ s1; s2 ];
  match Ssa.defs_of_var ssa "b" with
  | d :: _ ->
      check Alcotest.bool "an array def is not answered" true
        (match Ssa.reached_uses ssa d with
        | _ -> false
        | exception Invalid_argument _ -> true)
  | [] -> fail "no def of b"

(* The builder against the scanning one and the reached-use table
   against the walk ([Oracles.ssa_vs_reference]) on every program of
   [programs], before and after the induction rewrite (the compiler
   builds SSA on both). *)
let ssa_matches_reference programs () =
  let compared = ref 0 in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun (stage, p) ->
          match Oracles.ssa_vs_reference (Cfg.build p) with
          | Ok n -> compared := !compared + n
          | Error why -> fail (Fmt.str "%s (%s): %s" name stage why))
        [ ("source", p); ("after induction", (Induction.run p).Induction.prog) ])
    (programs ());
  check Alcotest.bool
    (Fmt.str "compared %d scalar definitions" !compared)
    true (!compared > 0)

(* The six bench kernels at the sizes [bench --json] runs, at P=4. *)
let bench_kernels () =
  let open Hpf_benchmarks in
  [
    ("fig1", Fig_examples.fig1 ~n:64 ~p:4 ());
    ("fig2", Fig_examples.fig2 ~n:32 ~np:4 ());
    ("fig7", Fig_examples.fig7 ~n:48 ~p:4 ());
    ("tomcatv", Tomcatv.program ~n:66 ~niter:1 ~p:4);
    ("dgefa", Dgefa.program ~n:64 ~p:4);
    ("appsp_2d", Appsp.program_2d ~n:18 ~niter:1 ~p1:2 ~p2:2);
  ]
  |> List.map (fun (n, p) -> (n, Sema.check p))

let composed_kernels () =
  List.concat_map
    (fun (name, p) ->
      List.map
        (fun k -> (Fmt.str "%s x%d" name k, Prog_gen.compose k p))
        [ 2; 4; 8; 16 ])
    (List.filter
       (fun (n, _) -> List.mem n [ "tomcatv"; "dgefa"; "appsp_2d" ])
       (bench_kernels ()))

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

let test_liveness_after_loop () =
  let p =
    parse
      {|
program t
real s, u
real b(4)
s = 0.0
do i = 1, 4
  s = s + 1.0
  u = 2.0
end do
u = s
b(1) = u
end
|}
  in
  let g = Cfg.build p in
  let lv = Liveness.compute g in
  let loop_sid =
    let found = ref 0 in
    Ast.iter_program
      (fun st -> match st.node with Ast.Do _ -> found := st.sid | _ -> ())
      p;
    !found
  in
  check Alcotest.bool "s live after loop" true
    (Liveness.live_after_loop g lv ~loop_sid ~var:"s");
  check Alcotest.bool "u reassigned: dead after loop" false
    (Liveness.live_after_loop g lv ~loop_sid ~var:"u")

let test_liveness_entry () =
  let p = parse "program t\nreal x, y\ny = x\nend" in
  let g = Cfg.build p in
  let lv = Liveness.compute g in
  check Alcotest.bool "x live at entry" true
    (Liveness.live_at_entry g lv ~var:"x");
  check Alcotest.bool "y dead at entry" false
    (Liveness.live_at_entry g lv ~var:"y")

(* ------------------------------------------------------------------ *)
(* Constant propagation                                                *)
(* ------------------------------------------------------------------ *)

let test_constprop_straightline () =
  let p =
    parse
      {|
program t
parameter n = 4
integer a, b, c
a = 2
b = a * 3
c = b + n
end
|}
  in
  let ssa = Ssa.build (Cfg.build p) in
  let cp = Constprop.compute ssa in
  let c_sid = sid_of_assign p "c" in
  let node = List.hd (Cfg.nodes_of_sid ssa.Ssa.cfg c_sid) in
  (match Ssa.def_at ssa ~node ~var:"c" with
  | Some d ->
      check Alcotest.bool "c = 10" true
        (Constprop.def_value cp d = Some (Constprop.VInt 10))
  | None -> fail "no def");
  check (Alcotest.option Alcotest.int) "b at use" (Some 6)
    (Constprop.const_int_at cp ~node ~var:"b")

let test_constprop_merge_bottom () =
  let p =
    parse
      {|
program t
real x
integer a, b
do i = 1, 4
  if (x > 0.0) then
    a = 1
  else
    a = 2
  end if
  b = a
  x = x + 1.0
end do
end
|}
  in
  let ssa = Ssa.build (Cfg.build p) in
  let cp = Constprop.compute ssa in
  let b_sid = sid_of_assign p "b" in
  let node = List.hd (Cfg.nodes_of_sid ssa.Ssa.cfg b_sid) in
  check (Alcotest.option Alcotest.int) "a unknown at merge" None
    (Constprop.const_int_at cp ~node ~var:"a")

let test_constprop_same_both_branches () =
  let p =
    parse
      {|
program t
real x
integer a, b
do i = 1, 4
  if (x > 0.0) then
    a = 7
  else
    a = 7
  end if
  b = a
  x = x + 1.0
end do
end
|}
  in
  let ssa = Ssa.build (Cfg.build p) in
  let cp = Constprop.compute ssa in
  let b_sid = sid_of_assign p "b" in
  let node = List.hd (Cfg.nodes_of_sid ssa.Ssa.cfg b_sid) in
  check (Alcotest.option Alcotest.int) "a = 7 at merge" (Some 7)
    (Constprop.const_int_at cp ~node ~var:"a")

(* The worklist against the round-robin evaluation
   ([Oracles.constprop_rounds]): the same lattice value for every
   definition of every program of [programs], before and after the
   induction rewrite. *)
let constprop_matches_rounds programs () =
  let compared = ref 0 in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun (stage, p) ->
          match Oracles.constprop_agrees (Ssa.build (Cfg.build p)) with
          | Ok n -> compared := !compared + n
          | Error why -> fail (Fmt.str "%s (%s): %s" name stage why))
        [ ("source", p); ("after induction", (Induction.run p).Induction.prog) ])
    (programs ());
  check Alcotest.bool
    (Fmt.str "compared %d definitions" !compared)
    true (!compared > 0)

let composed_x8 () =
  List.filter
    (fun (n, _) -> String.ends_with ~suffix:" x8" n)
    (composed_kernels ())

(* ------------------------------------------------------------------ *)
(* Induction variables                                                 *)
(* ------------------------------------------------------------------ *)

let test_induction_fig1 () =
  let prog = Sema.check (Hpf_benchmarks.Fig_examples.fig1 ()) in
  let ivs = (Induction.run prog).Induction.ivs in
  match ivs with
  | [ iv ] ->
      check Alcotest.string "var" "m" iv.Induction.var;
      check Alcotest.int "step" 1 iv.Induction.step_const;
      check Alcotest.int "init" 2 iv.Induction.init_value;
      check Alcotest.string "closed form" "i + 1"
        (Pp.expr_to_string iv.Induction.closed_form)
  | _ -> fail "expected exactly one induction variable"

let test_induction_rewrites_uses () =
  let prog = Sema.check (Hpf_benchmarks.Fig_examples.fig1 ()) in
  let prog' = (Induction.run prog).Induction.prog in
  let ok = ref false in
  Ast.iter_program
    (fun s ->
      match s.node with
      | Ast.Assign (Ast.LArr ("d", [ sub ]), _) ->
          if Pp.expr_to_string sub = "i + 1" then ok := true
      | _ -> ())
    prog';
  check Alcotest.bool "d(m) rewritten to d(i+1)" true !ok

let test_induction_negative_step () =
  let p =
    parse
      {|
program t
integer m
real a(20)
m = 20
do i = 1, 10
  m = m - 2
  a(m) = 0.0
end do
end
|}
  in
  let ivs = (Induction.run p).Induction.ivs in
  match ivs with
  | [ iv ] -> (
      check Alcotest.int "step -2" (-2) iv.Induction.step_const;
      (* closed form after increment: 20 - 2*i *)
      match
        Affine.of_expr
          ~is_index:(fun v -> v = "i")
          ~const_of:(fun _ -> None)
          iv.Induction.closed_form
      with
      | Some a ->
          check Alcotest.int "const" 20 a.Affine.const;
          check Alcotest.int "coeff" (-2) (Affine.coeff a "i")
      | None -> fail "closed form not affine")
  | _ -> fail "one iv expected"

let test_induction_conditional_not_recognized () =
  let p =
    parse
      {|
program t
integer m
real x
m = 0
do i = 1, 10
  if (x > 0.0) then
    m = m + 1
  end if
  x = x + 1.0
end do
end
|}
  in
  let ivs = (Induction.run p).Induction.ivs in
  check Alcotest.int "conditional increment rejected" 0 (List.length ivs)

let test_induction_nonconst_step_not_recognized () =
  let p =
    parse
      {|
program t
integer m, w
real x
m = 0
w = 3
do i = 1, 10
  m = m + w
  x = x + 1.0
end do
end
|}
  in
  (* w is constant-propagatable... the increment must be a literal or
     parameter constant in the source expression for our matcher *)
  let ivs = (Induction.run p).Induction.ivs in
  check Alcotest.int "non-literal step rejected" 0 (List.length ivs)

(* ------------------------------------------------------------------ *)
(* Reductions                                                          *)
(* ------------------------------------------------------------------ *)

let test_reduction_sum () =
  let prog = Sema.check (Hpf_benchmarks.Fig_examples.fig5 ()) in
  match Reduction.analyze (Nest.build prog) prog with
  | [ r ] ->
      check Alcotest.string "var" "s" r.Reduction.var;
      check Alcotest.bool "sum" true (r.Reduction.op = Reduction.Rsum);
      check Alcotest.bool "not conditional" false r.Reduction.conditional
  | _ -> fail "one reduction expected"

let test_reduction_maxloc () =
  let prog = Sema.check (Hpf_benchmarks.Dgefa.program ~n:8 ~p:2) in
  let reds = Reduction.analyze (Nest.build prog) prog in
  match List.find_opt (fun r -> r.Reduction.conditional) reds with
  | Some r ->
      check Alcotest.string "var" "t" r.Reduction.var;
      check Alcotest.bool "max" true (r.Reduction.op = Reduction.Rmax);
      check
        (Alcotest.list Alcotest.string)
        "loc vars" [ "l" ]
        (List.map fst r.Reduction.loc_vars)
  | None -> fail "maxloc not recognized"

let test_reduction_rejects_multiple_defs () =
  let p =
    parse
      {|
program t
real s
real a(8)
do i = 1, 8
  s = s + a(i)
  s = 0.0
end do
end
|}
  in
  check Alcotest.int "accumulator clobbered" 0
    (List.length (Reduction.analyze (Nest.build p) p))

let test_reduction_product () =
  let p =
    parse
      {|
program t
real s
real a(8)
do i = 1, 8
  s = s * a(i)
end do
end
|}
  in
  match Reduction.analyze (Nest.build p) p with
  | [ r ] ->
      check Alcotest.bool "product" true (r.Reduction.op = Reduction.Rprod)
  | _ -> fail "one reduction"

(* ------------------------------------------------------------------ *)
(* Dependence tests                                                    *)
(* ------------------------------------------------------------------ *)

let dep_ctx src =
  let p = parse src in
  (p, Nest.build p)

let test_depend_same_element () =
  let p, nest =
    dep_ctx
      {|
program t
real a(10)
do i = 1, 10
  a(i) = a(i) + 1.0
end do
end
|}
  in
  let sid = sid_of_array_assign p "a" in
  let w = { Depend.sid; base = "a"; subs = [ Ast.Var "i" ] } in
  let r = { Depend.sid; base = "a"; subs = [ Ast.Var "i" ] } in
  check Alcotest.bool "a(i) vs a(i)" true
    (Depend.may_conflict (Depend.build p nest) w r)

let test_depend_disjoint_constants () =
  let p, nest =
    dep_ctx
      {|
program t
real a(10)
do i = 1, 10
  a(1) = a(2) + 1.0
end do
end
|}
  in
  let sid = sid_of_array_assign p "a" in
  let w = { Depend.sid; base = "a"; subs = [ Ast.Int 1 ] } in
  let r = { Depend.sid; base = "a"; subs = [ Ast.Int 2 ] } in
  check Alcotest.bool "a(1) vs a(2)" false
    (Depend.may_conflict (Depend.build p nest) w r)

let test_depend_gcd () =
  let p, nest =
    dep_ctx
      {|
program t
real a(40)
do i = 1, 10
  a(2 * i) = a(2 * i + 1) + 1.0
end do
end
|}
  in
  let sid = sid_of_array_assign p "a" in
  let w =
    { Depend.sid; base = "a"; subs = [ Ast.Bin (Mul, Int 2, Var "i") ] }
  in
  let r =
    {
      Depend.sid;
      base = "a";
      subs = [ Ast.Bin (Add, Bin (Mul, Int 2, Var "i"), Int 1) ];
    }
  in
  check Alcotest.bool "even vs odd" false
    (Depend.may_conflict (Depend.build p nest) w r)

let test_depend_shift_overlap () =
  let p, nest =
    dep_ctx
      {|
program t
real a(12)
do i = 2, 10
  a(i) = a(i - 1) + 1.0
end do
end
|}
  in
  let sid = sid_of_array_assign p "a" in
  let w = { Depend.sid; base = "a"; subs = [ Ast.Var "i" ] } in
  let r =
    { Depend.sid; base = "a"; subs = [ Ast.Bin (Sub, Var "i", Int 1) ] }
  in
  check Alcotest.bool "a(i) vs a(i-1)" true
    (Depend.may_conflict (Depend.build p nest) w r)

let test_depend_banerjee_out_of_range () =
  let p, nest =
    dep_ctx
      {|
program t
real a(30)
do i = 1, 10
  a(i) = a(i + 15) + 1.0
end do
end
|}
  in
  let sid = sid_of_array_assign p "a" in
  let w = { Depend.sid; base = "a"; subs = [ Ast.Var "i" ] } in
  let r =
    { Depend.sid; base = "a"; subs = [ Ast.Bin (Add, Var "i", Int 15) ] }
  in
  check Alcotest.bool "ranges disjoint" false
    (Depend.may_conflict (Depend.build p nest) w r)

let test_depend_triangular_shared () =
  let p, nest =
    dep_ctx
      {|
program t
parameter n = 8
real a(8,8)
do k = 1, n - 1
  do j = k + 1, n
    do i = k + 1, n
      a(i, j) = a(i, j) + a(i, k)
    end do
  end do
end do
end
|}
  in
  let sid = sid_of_array_assign p "a" in
  let w = { Depend.sid; base = "a"; subs = [ Ast.Var "i"; Ast.Var "j" ] } in
  let r = { Depend.sid; base = "a"; subs = [ Ast.Var "i"; Ast.Var "k" ] } in
  check Alcotest.bool "shared k: no conflict" false
    (Depend.may_conflict ~shared_level:1 (Depend.build p nest) w r);
  check Alcotest.bool "unshared k: conservative conflict" true
    (Depend.may_conflict ~shared_level:0 (Depend.build p nest) w r)

let test_write_feeds_read () =
  let p, nest =
    dep_ctx
      {|
program t
real a(12), b(12), c(12)
do i = 2, 10
  a(i) = b(i) + 1.0
  b(i) = a(i - 1)
end do
end
|}
  in
  let loop = List.hd nest.Nest.loops in
  let read_sid = sid_of_array_assign p "b" in
  let r =
    {
      Depend.sid = read_sid;
      base = "a";
      subs = [ Ast.Bin (Sub, Var "i", Int 1) ];
    }
  in
  check Alcotest.bool "a written in loop feeds a(i-1)" true
    (Depend.write_feeds_read_in_loop (Depend.build p nest) loop r);
  let r2 =
    { Depend.sid = read_sid; base = "c"; subs = [ Ast.Var "i" ] }
  in
  check Alcotest.bool "unwritten base does not" false
    (Depend.write_feeds_read_in_loop (Depend.build p nest) loop r2)

(* The write index behind [write_feeds_read_in_loop]: a loop records the
   assignments of its nested loops too, grouped by base in program
   order, and a query reads only the read's base. *)
let test_write_index_nested () =
  let p, nest =
    dep_ctx
      {|
program t
real a(12), b(12), x
do k = 1, 3
  x = b(k)
  do i = 2, 10
    a(i) = b(i) + x
    b(i) = a(i - 1)
  end do
  a(1) = 0.0
end do
end
|}
  in
  let outer, inner =
    match nest.Nest.loops with
    | [ o; i ] -> (o, i)
    | _ -> fail "two loops"
  in
  let sids base li =
    List.map (fun (s : Ast.stmt) -> s.Ast.sid) (Nest.writes_in nest li base)
  in
  let a_sid = sid_of_array_assign p "a" in
  check (Alcotest.list Alcotest.int) "inner loop writes of a" [ a_sid ]
    (sids "a" inner);
  check Alcotest.int "outer loop sees the nested write and its own" 2
    (List.length (sids "a" outer));
  check Alcotest.int "program order" a_sid (List.hd (sids "a" outer));
  check (Alcotest.list Alcotest.int) "x is written by the outer loop only" []
    (sids "x" inner);
  check Alcotest.int "x is written once in the outer loop" 1
    (List.length (sids "x" outer));
  (* reads at the inner assignment to a *)
  let read_sid = a_sid in
  let deps = Depend.build p nest in
  let r = { Depend.sid = read_sid; base = "b"; subs = [ Ast.Var "i" ] } in
  check Alcotest.bool "b written in the inner loop feeds b(i)" true
    (Depend.write_feeds_read_in_loop deps inner r);
  let rx = { Depend.sid = read_sid; base = "x"; subs = [] } in
  check Alcotest.bool "a scalar write in the outer loop feeds x" true
    (Depend.write_feeds_read_in_loop deps outer rx);
  check Alcotest.bool "no write of x inside the inner loop" false
    (Depend.write_feeds_read_in_loop deps inner rx);
  let rc = { Depend.sid = read_sid; base = "a"; subs = [ Ast.Int 12 ] } in
  check Alcotest.bool "a(12) lies outside the writes a(2..10) and a(1)"
    false
    (Depend.write_feeds_read_in_loop deps outer rc);
  List.iter
    (fun (li, r) ->
      check Alcotest.bool "index = walk"
        (Oracles.Loop_walk.write_feeds_read_in_loop p nest li r)
        (Depend.write_feeds_read_in_loop deps li r))
    [ (inner, r); (outer, r); (outer, rx); (inner, rx); (outer, rc) ]

(* The index against the body walk ([Oracles.Loop_walk]) for every read
   reference at every enclosing level of every program of [programs]. *)
let depend_matches_walk programs () =
  let asked = ref 0 in
  List.iter
    (fun (name, p) ->
      match Oracles.Loop_walk.index_vs_walk p with
      | Ok n -> asked := !asked + n
      | Error why -> fail (Fmt.str "%s: %s" name why))
    (programs ());
  check Alcotest.bool
    (Fmt.str "asked %d dependence queries" !asked)
    true (!asked > 0)

(* ------------------------------------------------------------------ *)
(* Privatizable                                                        *)
(* ------------------------------------------------------------------ *)

let priv_ctx src =
  let p = parse src in
  let ssa = Ssa.build (Cfg.build p) in
  (p, ssa, Privatizable.make (Nest.build p) p ssa)

let def_of (p, ssa, _) v =
  let sid = sid_of_assign p v in
  let g = ssa.Ssa.cfg in
  let node = List.hd (Cfg.nodes_of_sid g sid) in
  match Ssa.def_at ssa ~node ~var:v with
  | Some d -> d
  | None -> fail "no def"

let test_priv_same_iteration () =
  let ((_, _, pv) as ctx) =
    priv_ctx
      {|
program t
real x
real a(10), b(10)
do i = 1, 10
  x = a(i)
  b(i) = x
end do
end
|}
  in
  check Alcotest.bool "x privatizable" true
    (Privatizable.privatizable_innermost pv ~def:(def_of ctx "x"))

let test_priv_live_after_loop () =
  let ((_, _, pv) as ctx) =
    priv_ctx
      {|
program t
real x
real a(10), b(10)
do i = 1, 10
  x = a(i)
end do
b(1) = x
end
|}
  in
  check Alcotest.bool "x not privatizable (live out)" false
    (Privatizable.privatizable_innermost pv ~def:(def_of ctx "x"))

let test_priv_loop_carried () =
  let ((_, _, pv) as ctx) =
    priv_ctx
      {|
program t
real x
real a(10), b(10)
x = 0.0
do i = 1, 10
  b(i) = x
  x = a(i)
end do
end
|}
  in
  (* x's in-loop def is read by the NEXT iteration: find the in-loop def
     (the second one) *)
  ignore ctx;
  let p, ssa, pv2 = ctx in
  ignore p;
  let defs = Ssa.defs_of_var ssa "x" in
  let inner = List.nth defs 1 in
  check Alcotest.bool "loop-carried use" false
    (Privatizable.privatizable_innermost pv2 ~def:inner);
  ignore pv

let test_priv_new_clause_overrides () =
  let ((_, _, pv) as ctx) =
    priv_ctx
      {|
program t
real x
real a(10), b(10)
!hpf$ independent, new(x)
do i = 1, 10
  b(i) = x
  x = a(i)
end do
end
|}
  in
  check Alcotest.bool "NEW asserts privatizability" true
    (Privatizable.privatizable_innermost pv ~def:(def_of ctx "x"))

let test_priv_unique_def () =
  let ((_, _, pv) as ctx) =
    priv_ctx
      {|
program t
real x, y
real a(10), b(10)
do i = 1, 10
  x = a(i)
  if (x > 0.0) then
    y = 1.0
  else
    y = 2.0
  end if
  b(i) = y
end do
end
|}
  in
  check Alcotest.bool "x unique def" true
    (Privatizable.is_unique_def pv ~def:(def_of ctx "x"));
  check Alcotest.bool "y not unique (two branches)" false
    (Privatizable.is_unique_def pv ~def:(def_of ctx "y"))

let test_priv_arrays_from_new () =
  let prog =
    Sema.check (Hpf_benchmarks.Appsp.program_2d ~n:8 ~niter:1 ~p1:2 ~p2:2)
  in
  let ssa = Ssa.build (Cfg.build prog) in
  let nest = Nest.build prog in
  let pv = Privatizable.make nest prog ssa in
  let indep =
    List.find (fun li -> li.Nest.loop.Ast.independent) nest.Nest.loops
  in
  match Privatizable.privatizable_arrays pv indep with
  | [ ("c", Privatizable.From_new) ] -> ()
  | l ->
      fail (Fmt.str "expected [c, From_new], got %d entries" (List.length l))

(* ------------------------------------------------------------------ *)
(* Trips                                                               *)
(* ------------------------------------------------------------------ *)

let test_trips () =
  let p =
    parse
      {|
program t
parameter n = 10
real x
do i = 2, n - 1
  do j = 1, n, 2
    x = x + 1.0
  end do
end do
end
|}
  in
  let nest = Nest.build p in
  match nest.Nest.loops with
  | [ li; lj ] ->
      check Alcotest.int "outer trips" 8 (Trips.trip p li.Nest.loop);
      check Alcotest.int "strided trips" 5 (Trips.trip p lj.Nest.loop);
      let x_sid = sid_of_assign p "x" in
      check Alcotest.int "iterations at level 2" 40
        (Trips.iterations_at_level p nest ~sid:x_sid 2)
  | _ -> fail "two loops"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [
      ( "affine",
        [
          Alcotest.test_case "basic" `Quick test_affine_basic;
          Alcotest.test_case "sub/neg" `Quick test_affine_sub_neg;
          Alcotest.test_case "rejects" `Quick test_affine_rejects;
          Alcotest.test_case "roundtrip" `Quick test_affine_roundtrip;
          Alcotest.test_case "algebra" `Quick test_affine_algebra;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "structure" `Quick test_cfg_structure;
          Alcotest.test_case "back edge" `Quick test_cfg_back_edge;
          Alcotest.test_case "exit/cycle edges" `Quick
            test_cfg_exit_cycle_edges;
          Alcotest.test_case "defs/uses" `Quick test_cfg_defs_uses;
          Alcotest.test_case "array update" `Quick
            test_cfg_array_update_semantics;
        ] );
      ( "dominators",
        [
          Alcotest.test_case "entry dominates" `Quick
            test_dom_entry_dominates_all;
          Alcotest.test_case "idom dominates" `Quick test_dom_idom_dominates;
          Alcotest.test_case "loop-head frontier" `Quick
            test_dom_loop_head_frontier;
        ] );
      ( "ssa",
        [
          Alcotest.test_case "reaching defs typed" `Quick
            test_ssa_unique_reaching_def;
          Alcotest.test_case "phi at loop head" `Quick
            test_ssa_phi_at_loop_head;
          Alcotest.test_case "phi args complete" `Quick
            test_ssa_phi_args_complete;
          Alcotest.test_case "reached uses same iter" `Quick
            test_ssa_reached_uses_same_iter;
          Alcotest.test_case "back-edge flow" `Quick test_ssa_back_edge_flow;
          Alcotest.test_case "nested back edges" `Quick
            test_ssa_nested_back_edges;
          Alcotest.test_case "exit unions back edges" `Quick
            test_ssa_exit_union_back_edges;
          Alcotest.test_case "cycle back edges" `Quick
            test_ssa_cycle_back_edges;
          Alcotest.test_case "reaching defs merge" `Quick
            test_ssa_reaching_defs_merge;
          Alcotest.test_case "two inner loops, zero-trip path" `Quick
            test_ssa_two_inner_loops_zero_trip;
          Alcotest.test_case "= reference on the examples" `Quick
            (ssa_matches_reference Prog_gen.examples);
          Alcotest.test_case "= reference on the bench kernels" `Quick
            (ssa_matches_reference bench_kernels);
          Alcotest.test_case "= reference on composed kernels" `Quick
            (ssa_matches_reference composed_kernels);
        ] );
      ( "liveness",
        [
          Alcotest.test_case "after loop" `Quick test_liveness_after_loop;
          Alcotest.test_case "at entry" `Quick test_liveness_entry;
        ] );
      ( "constprop",
        [
          Alcotest.test_case "straightline" `Quick test_constprop_straightline;
          Alcotest.test_case "merge to bottom" `Quick
            test_constprop_merge_bottom;
          Alcotest.test_case "same both branches" `Quick
            test_constprop_same_both_branches;
          Alcotest.test_case "= rounds on the examples" `Quick
            (constprop_matches_rounds Prog_gen.examples);
          Alcotest.test_case "= rounds on the bench kernels" `Quick
            (constprop_matches_rounds bench_kernels);
          Alcotest.test_case "= rounds on kernels composed x8" `Quick
            (constprop_matches_rounds composed_x8);
        ] );
      ( "induction",
        [
          Alcotest.test_case "fig1 m" `Quick test_induction_fig1;
          Alcotest.test_case "rewrites uses" `Quick
            test_induction_rewrites_uses;
          Alcotest.test_case "negative step" `Quick
            test_induction_negative_step;
          Alcotest.test_case "conditional rejected" `Quick
            test_induction_conditional_not_recognized;
          Alcotest.test_case "non-const step rejected" `Quick
            test_induction_nonconst_step_not_recognized;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "sum (fig5)" `Quick test_reduction_sum;
          Alcotest.test_case "maxloc (dgefa)" `Quick test_reduction_maxloc;
          Alcotest.test_case "clobbered accumulator" `Quick
            test_reduction_rejects_multiple_defs;
          Alcotest.test_case "product" `Quick test_reduction_product;
        ] );
      ( "depend",
        [
          Alcotest.test_case "same element" `Quick test_depend_same_element;
          Alcotest.test_case "disjoint constants" `Quick
            test_depend_disjoint_constants;
          Alcotest.test_case "gcd" `Quick test_depend_gcd;
          Alcotest.test_case "shift overlap" `Quick test_depend_shift_overlap;
          Alcotest.test_case "banerjee range" `Quick
            test_depend_banerjee_out_of_range;
          Alcotest.test_case "triangular shared index" `Quick
            test_depend_triangular_shared;
          Alcotest.test_case "write feeds read" `Quick test_write_feeds_read;
          Alcotest.test_case "write index of nested loops" `Quick
            test_write_index_nested;
          Alcotest.test_case "index = walk on the examples" `Quick
            (depend_matches_walk Prog_gen.examples);
          Alcotest.test_case "index = walk on the bench kernels" `Quick
            (depend_matches_walk bench_kernels);
          Alcotest.test_case "index = walk on composed kernels" `Quick
            (depend_matches_walk composed_kernels);
        ] );
      ( "privatizable",
        [
          Alcotest.test_case "same iteration" `Quick test_priv_same_iteration;
          Alcotest.test_case "live after loop" `Quick
            test_priv_live_after_loop;
          Alcotest.test_case "loop carried" `Quick test_priv_loop_carried;
          Alcotest.test_case "NEW overrides" `Quick
            test_priv_new_clause_overrides;
          Alcotest.test_case "unique def" `Quick test_priv_unique_def;
          Alcotest.test_case "arrays from NEW" `Quick
            test_priv_arrays_from_new;
        ] );
      ("trips", [ Alcotest.test_case "counts" `Quick test_trips ]);
    ]
