(* Tests for the hpf_spmd runtime substrate: values, memory, expression
   evaluation and the sequential reference interpreter. *)

open Hpf_lang
open Hpf_spmd

let check = Alcotest.check
let fail = Alcotest.fail

let parse src = Sema.check (Parser.parse_string src)
let run ?init src = Seq_interp.run ?init (parse src)

let get_r m v =
  match Memory.get_scalar m v with
  | Value.R f -> f
  | x -> fail (Fmt.str "expected real, got %a" Value.pp x)

let get_i m v =
  match Memory.get_scalar m v with
  | Value.I n -> n
  | x -> fail (Fmt.str "expected int, got %a" Value.pp x)

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let test_memory_zero_init () =
  let p = parse "program t\nreal a(4,4)\ninteger k\nreal x\nx = 1.0\nend" in
  let m = Memory.create p in
  check Alcotest.bool "scalar zero" true
    (Memory.get_scalar m "x" = Value.R 0.0);
  check Alcotest.bool "int zero" true (Memory.get_scalar m "k" = Value.I 0);
  check Alcotest.bool "array zero" true
    (Memory.get_elem m "a" [ 3; 2 ] = Value.R 0.0)

let test_memory_bounds_check () =
  let p = parse "program t\nreal a(2:5)\nreal x\nx = 1.0\nend" in
  let m = Memory.create p in
  Memory.set_elem m "a" [ 2 ] (Value.R 7.0);
  Memory.set_elem m "a" [ 5 ] (Value.R 8.0);
  check Alcotest.bool "lo" true (Memory.get_elem m "a" [ 2 ] = Value.R 7.0);
  (match Memory.get_elem m "a" [ 1 ] with
  | exception Memory.Runtime_error _ -> ()
  | _ -> fail "below lo must fail");
  match Memory.get_elem m "a" [ 6 ] with
  | exception Memory.Runtime_error _ -> ()
  | _ -> fail "above hi must fail"

let test_memory_row_major_distinct () =
  let p = parse "program t\nreal a(3,3)\nreal x\nx = 1.0\nend" in
  let m = Memory.create p in
  Memory.set_elem m "a" [ 1; 2 ] (Value.R 1.0);
  Memory.set_elem m "a" [ 2; 1 ] (Value.R 2.0);
  check Alcotest.bool "distinct cells" true
    (Memory.get_elem m "a" [ 1; 2 ] = Value.R 1.0
    && Memory.get_elem m "a" [ 2; 1 ] = Value.R 2.0)

let test_memory_copy_isolated () =
  let p = parse "program t\nreal a(4)\nreal x\nx = 1.0\nend" in
  let m = Memory.create p in
  Memory.set_elem m "a" [ 1 ] (Value.R 5.0);
  let m2 = Memory.copy m in
  Memory.set_elem m2 "a" [ 1 ] (Value.R 9.0);
  check Alcotest.bool "original unchanged" true
    (Memory.get_elem m "a" [ 1 ] = Value.R 5.0)

let test_memory_iter_elems () =
  let p = parse "program t\nreal a(2,3)\nreal x\nx = 1.0\nend" in
  let m = Memory.create p in
  let count = ref 0 in
  Memory.iter_elems m "a" (fun idx _ ->
      incr count;
      check Alcotest.int "rank" 2 (List.length idx));
  check Alcotest.int "6 elements" 6 !count

(* ------------------------------------------------------------------ *)
(* Sequential interpreter                                              *)
(* ------------------------------------------------------------------ *)

let test_interp_arith () =
  let m =
    run
      {|
program t
real x, y
integer k
x = 2.0 ** 3 + 1.0
y = min(x, 5.0) / 2.0
k = mod(17, 5)
end
|}
  in
  check (Alcotest.float 1e-12) "x" 9.0 (get_r m "x");
  check (Alcotest.float 1e-12) "y" 2.5 (get_r m "y");
  check Alcotest.int "k" 2 (get_i m "k")

let test_interp_int_division () =
  let m = run "program t\ninteger k\nk = 7 / 2\nend" in
  check Alcotest.int "truncates" 3 (get_i m "k")

let test_interp_loop_sum () =
  let m =
    run
      {|
program t
parameter n = 10
real s
s = 0.0
do i = 1, n
  s = s + 1.5
end do
end
|}
  in
  check (Alcotest.float 1e-12) "sum" 15.0 (get_r m "s")

let test_interp_strided_and_downward () =
  let m =
    run
      {|
program t
integer c1, c2
c1 = 0
c2 = 0
do i = 1, 10, 3
  c1 = c1 + 1
end do
do i = 10, 1, -2
  c2 = c2 + 1
end do
end
|}
  in
  check Alcotest.int "1,4,7,10" 4 (get_i m "c1");
  check Alcotest.int "10,8,6,4,2" 5 (get_i m "c2")

let test_interp_zero_trip () =
  let m =
    run
      {|
program t
integer c
c = 0
do i = 5, 4
  c = c + 1
end do
end
|}
  in
  check Alcotest.int "zero trips" 0 (get_i m "c")

let test_interp_if_else () =
  let m =
    run
      {|
program t
real a(4)
integer pos, neg
a(1) = 1.0
a(2) = -1.0
a(3) = 2.0
a(4) = -2.0
pos = 0
neg = 0
do i = 1, 4
  if (a(i) > 0.0) then
    pos = pos + 1
  else
    neg = neg + 1
  end if
end do
end
|}
  in
  check Alcotest.int "pos" 2 (get_i m "pos");
  check Alcotest.int "neg" 2 (get_i m "neg")

let test_interp_exit_cycle () =
  let m =
    run
      {|
program t
integer c, d
c = 0
d = 0
do i = 1, 10
  if (i == 4) exit
  c = c + 1
end do
do i = 1, 10
  if (mod(i, 2) == 0) cycle
  d = d + 1
end do
end
|}
  in
  check Alcotest.int "exit at 4" 3 (get_i m "c");
  check Alcotest.int "odd only" 5 (get_i m "d")

let test_interp_named_exit () =
  let m =
    run
      {|
program t
integer c
c = 0
outer: do i = 1, 5
  do j = 1, 5
    c = c + 1
    if (c == 7) exit outer
  end do
end do
end
|}
  in
  check Alcotest.int "exited outer" 7 (get_i m "c")

let test_interp_gauss_small () =
  (* 2x2 elimination: a = [[2,1],[4,3]]; after dgefa-style elimination the
     multiplier lives in a(2,1) and the trailing update in a(2,2) *)
  let src =
    {|
program t
real a(2,2)
real t3, t2
integer l
real tt
a(1,1) = 4.0
a(1,2) = 3.0
a(2,1) = 2.0
a(2,2) = 1.0
do k = 1, 1
  tt = 0.0
  l = k
  do i = k, 2
    if (abs(a(i,k)) > tt) then
      tt = abs(a(i,k))
      l = i
    end if
  end do
  t2 = -1.0 / a(l,k)
  do i = k + 1, 2
    a(i,k) = a(i,k) * t2
  end do
  do j = k + 1, 2
    t3 = a(l,j)
    a(l,j) = a(k,j)
    a(k,j) = t3
    do i = k + 1, 2
      a(i,j) = a(i,j) + t3 * a(i,k)
    end do
  end do
end do
end
|}
  in
  let m = run src in
  (* pivot row 1 (value 4): l = 1, multiplier = -2/4 = -0.5,
     a(2,2) = 1 + 3 * (-0.5) = -0.5 *)
  check Alcotest.int "pivot" 1 (get_i m "l");
  check (Alcotest.float 1e-12) "multiplier" (-0.5)
    (match Memory.get_elem m "a" [ 2; 1 ] with Value.R f -> f | _ -> nan);
  check (Alcotest.float 1e-12) "update" (-0.5)
    (match Memory.get_elem m "a" [ 2; 2 ] with Value.R f -> f | _ -> nan)

let test_interp_fuel () =
  let p =
    parse
      {|
program t
integer c
c = 0
do i = 1, 100000
  c = c + 1
end do
end
|}
  in
  match
    Seq_interp.run
      ~config:{ Seq_interp.fuel = 1000; on_stmt = None }
      p
  with
  | exception Seq_interp.Fuel_exhausted { budget; _ } ->
      check Alcotest.int "exhausted budget is reported" 1000 budget
  | _ -> fail "fuel must run out"

(* A budget of N runs exactly N statement instances: a straight-line
   program of k statements completes on k, and on any smaller budget b
   fails as statement b + 1 starts, in the interpreter and the AST walk
   alike. *)
let test_interp_fuel_exact () =
  let k = 5 in
  let p =
    parse
      ("program t\ninteger c\n"
      ^ String.concat "" (List.init k (Fmt.str "c = %d\n"))
      ^ "end\n")
  in
  List.iter
    (fun (name, run) ->
      for budget = 0 to k do
        match run ~config:{ Seq_interp.fuel = budget; on_stmt = None } p with
        | (_ : Memory.t) ->
            check Alcotest.int (name ^ ": completes only on k") k budget
        | exception Seq_interp.Fuel_exhausted { sid; _ } ->
            check Alcotest.bool (name ^ ": fails only below k") true
              (budget < k);
            check Alcotest.int
              (Fmt.str "%s: budget %d fails at statement %d" name budget
                 (budget + 1))
              (List.nth p.Ast.body budget).Ast.sid sid
      done)
    [
      ("resolved", fun ~config p -> Seq_interp.run ~config p);
      ("AST walk", fun ~config p -> Oracles.Ast_eval.run ~config p);
    ]

let test_interp_on_stmt_counts () =
  let p =
    parse
      {|
program t
real x
do i = 1, 5
  x = x + 1.0
end do
end
|}
  in
  let count = ref 0 in
  let _ =
    Seq_interp.run
      ~config:
        {
          Seq_interp.fuel = Seq_interp.default_fuel;
          on_stmt = Some (fun _ _ -> incr count);
        }
      p
  in
  (* 1 Do + 5 assigns *)
  check Alcotest.int "instances" 6 !count

let test_interp_init_seeding () =
  let p = parse "program t\nreal a(8)\nreal x\nx = a(3)\nend" in
  let m = Seq_interp.run ~init:(Init.init p) p in
  check Alcotest.bool "seeded nonzero" true (get_r m "x" <> 0.0);
  (* deterministic *)
  let m2 = Seq_interp.run ~init:(Init.init p) p in
  check (Alcotest.float 0.0) "deterministic" (get_r m "x") (get_r m2 "x")

let test_flops_counting () =
  let e : Ast.expr =
    Bin (Add, Bin (Mul, Var "a", Var "b"), Un (Neg, Var "c"))
  in
  check Alcotest.int "3 ops" 3 (Eval.flops e)

(* A write to a declared scalar converts to its declared type, with the
   array elements' table: Fortran's [k = 2.5] stores 2 in an integer
   [k]. *)
let test_scalar_write_converts () =
  let m =
    run
      {|
program t
integer k
real x, y
logical f
k = 2.5
x = k * 2
y = 3
f = 1
end
|}
  in
  check Alcotest.int "k truncated" 2 (get_i m "k");
  check (Alcotest.float 0.0) "x from the integer" 4.0 (get_r m "x");
  check (Alcotest.float 0.0) "y promoted" 3.0 (get_r m "y");
  check Alcotest.bool "f from an integer" true
    (Memory.get_scalar m "f" = Value.B true)

(* Loop indices stay integers even when declared real. *)
let test_loop_index_stays_integer () =
  let m = run "program t\nreal i, s\ns = 0.0\ndo i = 1, 3\n  s = s + 1.0\nend do\nend" in
  check Alcotest.int "index" 3 (get_i m "i")

(* ------------------------------------------------------------------ *)
(* The resolved evaluator against the AST walk                         *)
(* ------------------------------------------------------------------ *)

(* The six bench kernels at the sizes [bench --json] runs. *)
let bench_kernels () =
  let open Hpf_benchmarks in
  List.map
    (fun (n, p) -> (n, Sema.check p))
    [
      ("fig1", Fig_examples.fig1 ~n:64 ~p:8 ());
      ("fig2", Fig_examples.fig2 ~n:32 ~np:8 ());
      ("fig7", Fig_examples.fig7 ~n:48 ~p:8 ());
      ("tomcatv", Tomcatv.program ~n:66 ~niter:1 ~p:8);
      ("dgefa", Dgefa.program ~n:64 ~p:8);
      ("appsp_2d", Appsp.program_2d ~n:18 ~niter:1 ~p1:4 ~p2:2);
    ]

let agree (name, prog) =
  match Oracles.resolved_vs_ast ~init:(Init.init prog) prog with
  | None -> ()
  | Some why -> fail (Fmt.str "%s: %s" name why)

let test_resolved_examples () =
  let ex = Prog_gen.examples () in
  check Alcotest.int "ten examples" 10 (List.length ex);
  List.iter agree ex

let test_resolved_bench_kernels () = List.iter agree (bench_kernels ())

let test_resolved_composed () =
  List.iter
    (fun (name, prog) ->
      agree (Fmt.str "%s x3" name, Prog_gen.compose 3 prog))
    (bench_kernels ())

(* Offset-order seeding with a reused index vector writes exactly what
   the list-based seeding wrote. *)
let test_seeding_matches_lists () =
  List.iter
    (fun (name, prog) ->
      let fast = Memory.create prog and slow = Memory.create prog in
      Init.seed prog fast;
      Oracles.seed_list prog slow;
      if not (Oracles.mem_equal fast slow) then
        fail (name ^ ": seeded memories differ"))
    (bench_kernels () @ Prog_gen.examples ())

(* ------------------------------------------------------------------ *)
(* Error parity                                                        *)
(* ------------------------------------------------------------------ *)

let error_of f =
  match f () with
  | _ -> "no error"
  | exception Memory.Runtime_error { loc; sid; msg } ->
      Fmt.str "%s at s%a %a" msg
        Fmt.(option ~none:(any "-") int)
        sid
        Fmt.(option ~none:(any "-") Loc.pp)
        loc
  | exception Seq_interp.Fuel_exhausted { loc; sid; budget } ->
      Fmt.str "E0704 fuel %d at s%d %a" budget sid
        Fmt.(option ~none:(any "-") Loc.pp)
        loc

(* The same error — message, statement id, location — from the AST
   walk, the resolved interpreter and the SPMD executor.  [twin] is a
   checked program whose lowering the executor runs over [prog] (for
   programs sema would reject); [expect] is the error all three must
   report. *)
let parity ?(fuel = Seq_interp.default_fuel) ?twin ~expect prog =
  let config = { Seq_interp.fuel; on_stmt = None } in
  let walked = error_of (fun () -> Oracles.Ast_eval.run ~config prog) in
  let resolved = error_of (fun () -> Seq_interp.run ~config prog) in
  let spmd =
    error_of (fun () ->
        let open Phpf_core in
        match twin with
        | None -> Spmd_interp.run ~fuel (Compiler.compile_exn prog)
        | Some t ->
            let c = Compiler.compile_exn t in
            Spmd_interp.run ~fuel
              ~sir:{ (Compiler.sir_exn c) with Phpf_ir.Sir.source = prog }
              c)
  in
  check Alcotest.string "AST walk" expect walked;
  check Alcotest.string "resolved = AST" walked resolved;
  check Alcotest.string "SPMD = AST" walked spmd

let strip_locs (p : Ast.program) : Ast.program =
  let rec stmt (s : Ast.stmt) =
    let node =
      match s.Ast.node with
      | Ast.If (c, t, e) -> Ast.If (c, List.map stmt t, List.map stmt e)
      | Ast.Do d -> Ast.Do { d with Ast.body = List.map stmt d.Ast.body }
      | n -> n
    in
    { s with Ast.loc = None; node }
  in
  { p with Ast.body = List.map stmt p.Ast.body }

let test_parity_read_oob () =
  parity ~expect:"subscript 5 out of bounds 1:4 at s1 <string>:4:1"
    (parse "program t\nreal a(4)\nreal x\nx = a(5)\nend")

let test_parity_write_oob () =
  parity ~expect:"subscript 7 out of bounds 1:4 at s2 <string>:5:1"
    (parse "program t\nreal a(4)\ninteger k\nk = 7\na(k) = 1.0\nend")

let test_parity_rank () =
  (* a rank-2 twin, run over the same statements with [a] of rank 1 *)
  let twin = parse "program t\nreal a(4,4)\nreal x\nx = a(1, 2)\nend" in
  let prog =
    strip_locs
      {
        twin with
        Ast.decls =
          List.map
            (fun (d : Ast.decl) ->
              if d.Ast.dname = "a" then
                { d with Ast.shape = [ { Types.lo = 1; hi = 4 } ] }
              else d)
            twin.Ast.decls;
      }
  in
  parity ~twin
    ~expect:"rank mismatch in array access (in statement s1) at s1 -" prog

let test_parity_div_zero () =
  parity ~expect:"integer division by zero at s1 <string>:3:1"
    (parse "program t\ninteger j, k\nk = 1 / j\nend")

let test_parity_mod_zero () =
  parity ~expect:"mod by zero at s1 <string>:3:1"
    (parse "program t\ninteger j, k\nk = mod(3, j)\nend")

let test_parity_zero_step () =
  parity ~expect:"zero loop step at s1 <string>:4:1"
    (parse "program t\ninteger j\nreal x\ndo i = 1, 4, j\n  x = 1.0\nend do\nend")

let test_parity_unbound () =
  (* [y] declared in the twin, undeclared (so never bound) in [prog] *)
  let twin = parse "program t\nreal x, y\nx = y\nend" in
  let prog =
    strip_locs
      {
        twin with
        Ast.decls =
          List.filter (fun (d : Ast.decl) -> d.Ast.dname <> "y") twin.Ast.decls;
      }
  in
  parity ~twin
    ~expect:"read of unbound scalar y (in statement s1) at s1 -" prog

(* The right operand goes first: the division fails before the bad
   subscript is read. *)
let test_parity_order () =
  parity ~expect:"integer division by zero at s1 <string>:5:1"
    (parse "program t\nreal a(3)\ninteger k\nreal x\nx = a(5) + 1/k\nend")

let test_parity_fuel () =
  parity ~fuel:50 ~expect:"E0704 fuel 50 at s3 <string>:5:3"
    (parse
       "program t\ninteger c\nc = 0\ndo i = 1, 100\n  c = c + 1\nend do\nend")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "interp"
    [
      ( "memory",
        [
          Alcotest.test_case "zero init" `Quick test_memory_zero_init;
          Alcotest.test_case "bounds check" `Quick test_memory_bounds_check;
          Alcotest.test_case "distinct cells" `Quick
            test_memory_row_major_distinct;
          Alcotest.test_case "copy isolated" `Quick test_memory_copy_isolated;
          Alcotest.test_case "iter elems" `Quick test_memory_iter_elems;
        ] );
      ( "seq-interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_interp_arith;
          Alcotest.test_case "integer division" `Quick
            test_interp_int_division;
          Alcotest.test_case "loop sum" `Quick test_interp_loop_sum;
          Alcotest.test_case "strided/downward" `Quick
            test_interp_strided_and_downward;
          Alcotest.test_case "zero trip" `Quick test_interp_zero_trip;
          Alcotest.test_case "if/else" `Quick test_interp_if_else;
          Alcotest.test_case "exit/cycle" `Quick test_interp_exit_cycle;
          Alcotest.test_case "named exit" `Quick test_interp_named_exit;
          Alcotest.test_case "small gauss" `Quick test_interp_gauss_small;
          Alcotest.test_case "fuel" `Quick test_interp_fuel;
          Alcotest.test_case "fuel runs exactly N instances" `Quick
            test_interp_fuel_exact;
          Alcotest.test_case "on_stmt counts" `Quick
            test_interp_on_stmt_counts;
          Alcotest.test_case "init seeding" `Quick test_interp_init_seeding;
          Alcotest.test_case "flops" `Quick test_flops_counting;
          Alcotest.test_case "scalar writes convert" `Quick
            test_scalar_write_converts;
          Alcotest.test_case "loop index stays integer" `Quick
            test_loop_index_stays_integer;
        ] );
      ( "resolved",
        [
          Alcotest.test_case "examples" `Quick test_resolved_examples;
          Alcotest.test_case "bench kernels" `Quick test_resolved_bench_kernels;
          Alcotest.test_case "composed kernels" `Quick test_resolved_composed;
          Alcotest.test_case "seeding = list seeding" `Quick
            test_seeding_matches_lists;
        ] );
      ( "parity",
        [
          Alcotest.test_case "out-of-bounds read" `Quick test_parity_read_oob;
          Alcotest.test_case "out-of-bounds write" `Quick test_parity_write_oob;
          Alcotest.test_case "rank mismatch" `Quick test_parity_rank;
          Alcotest.test_case "integer division by zero" `Quick
            test_parity_div_zero;
          Alcotest.test_case "mod by zero" `Quick test_parity_mod_zero;
          Alcotest.test_case "zero loop step" `Quick test_parity_zero_step;
          Alcotest.test_case "unbound scalar" `Quick test_parity_unbound;
          Alcotest.test_case "right operand first" `Quick test_parity_order;
          Alcotest.test_case "fuel exhaustion" `Quick test_parity_fuel;
        ] );
    ]
