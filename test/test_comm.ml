(* Tests for hpf_comm: the cost model, message vectorization placement,
   and communication classification. *)

open Hpf_lang
open Hpf_analysis
open Hpf_comm

let check = Alcotest.check
let fail = Alcotest.fail

let parse src = Sema.check (Parser.parse_string src)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_ptp_monotone () =
  let m = Cost_model.sp2 in
  check Alcotest.bool "latency floor" true
    (Cost_model.ptp m ~elems:1 >= m.Cost_model.alpha);
  check Alcotest.bool "monotone in size" true
    (Cost_model.ptp m ~elems:1000 > Cost_model.ptp m ~elems:10)

let test_cost_bcast_log () =
  let m = Cost_model.sp2 in
  let b p = Cost_model.bcast m ~p ~elems:100 in
  check Alcotest.bool "p=1 free" true (b 1 = 0.0);
  check Alcotest.bool "log growth" true (b 16 = 2.0 *. b 4);
  check Alcotest.bool "reduce >= bcast" true
    (Cost_model.reduce m ~p:8 ~elems:100 >= b 8)

let test_cost_log2i_exact () =
  (* exact powers of two must not gain a phantom tree stage from float
     log rounding (log 1024 / log 2 can exceed 10 by an ulp) *)
  check Alcotest.int "p=1" 0 (Cost_model.log2i 1);
  check Alcotest.int "p=0" 0 (Cost_model.log2i 0);
  check Alcotest.int "p=2" 1 (Cost_model.log2i 2);
  List.iter
    (fun k ->
      let p = 1 lsl k in
      check Alcotest.int (Fmt.str "p=2^%d" k) k (Cost_model.log2i p);
      check Alcotest.int
        (Fmt.str "p=2^%d+1" k)
        (k + 1)
        (Cost_model.log2i (p + 1));
      check Alcotest.int (Fmt.str "p=2^%d-1" k) k (Cost_model.log2i (p - 1)))
    [ 2; 3; 4; 8; 10; 16; 20 ]

let test_cost_latency_dominates_small () =
  let m = Cost_model.sp2 in
  (* SP2: one 8-byte message costs nearly as much as a 1000-element one
     relative to flops: latency must dwarf per-element time *)
  check Alcotest.bool "alpha >> flop" true
    (m.Cost_model.alpha > 100.0 *. m.Cost_model.flop)

let test_cost_zero_latency () =
  let m = Cost_model.zero_latency in
  check (Alcotest.float 1e-12) "free ptp" 0.0 (Cost_model.ptp m ~elems:100)

let test_cost_transpose () =
  let m = Cost_model.sp2 in
  check (Alcotest.float 1e-12) "p=1 transpose free" 0.0
    (Cost_model.transpose m ~p:1 ~total_elems:1000);
  check Alcotest.bool "p=4 transpose positive" true
    (Cost_model.transpose m ~p:4 ~total_elems:1000 > 0.0)

(* ------------------------------------------------------------------ *)
(* Vectorization placement                                             *)
(* ------------------------------------------------------------------ *)

let placement src ~base ~subs =
  let p = parse src in
  let nest = Nest.build p in
  (* the read is attached to the first assignment reading [base] *)
  let sid = ref 0 in
  Ast.iter_program
    (fun s ->
      match s.node with
      | Ast.Assign (_, rhs)
        when !sid = 0 && List.mem base (Ast.expr_vars rhs) ->
          sid := s.sid
      | _ -> ())
    p;
  let data = { Aref.sid = !sid; base; subs } in
  (p, nest, Vectorize.placement_level (Depend.build p nest) ~data ~consumer_subs:[])

let test_placement_hoists_readonly () =
  let _, _, lv =
    placement
      {|
program t
real a(10,10), b(10,10)
do j = 1, 10
  do i = 1, 10
    b(i,j) = a(i,j)
  end do
end do
end
|}
      ~base:"a"
      ~subs:[ Ast.Var "i"; Ast.Var "j" ]
  in
  check Alcotest.int "hoisted to level 0" 0 lv

let test_placement_pinned_by_write () =
  let _, _, lv =
    placement
      {|
program t
real a(12), b(12)
do i = 2, 10
  b(i) = a(i - 1)
  a(i) = b(i) * 2.0
end do
end
|}
      ~base:"a"
      ~subs:[ Ast.Bin (Sub, Var "i", Int 1) ]
  in
  check Alcotest.int "stays inside the writing loop" 1 lv

let test_placement_pinned_by_nonaffine_subscript () =
  let _, _, lv =
    placement
      {|
program t
real a(10,10), b(10,10)
integer w(10)
integer s
do j = 1, 10
  s = w(j)
  do i = 1, 10
    b(i,j) = a(i,s)
  end do
end do
end
|}
      ~base:"a"
      ~subs:[ Ast.Var "i"; Ast.Var "s" ]
  in
  (* s varies in the j loop (level 1): cannot hoist past it *)
  check Alcotest.int "pinned at level 1" 1 lv

let test_placement_partial_hoist () =
  let _, _, lv =
    placement
      {|
program t
real a(10,10), b(10,10)
do it = 1, 5
  do j = 1, 10
    do i = 1, 10
      b(i,j) = a(i,j)
    end do
  end do
  do j = 1, 10
    do i = 1, 10
      a(i,j) = b(i,j)
    end do
  end do
end do
end
|}
      ~base:"a"
      ~subs:[ Ast.Var "i"; Ast.Var "j" ]
  in
  (* a is rewritten every outer iteration: hoist out of i and j only *)
  check Alcotest.int "level 1" 1 lv

let test_elems_per_instance () =
  let p =
    parse
      {|
program t
real a(10,10), b(10,10)
do j = 1, 10
  do i = 1, 10
    b(i,j) = a(i,j)
  end do
end do
end
|}
  in
  let nest = Nest.build p in
  let sid =
    let s = ref 0 in
    Ast.iter_program
      (fun st ->
        match st.node with Ast.Assign (Ast.LArr ("b", _), _) -> s := st.sid | _ -> ())
      p;
    !s
  in
  let data = { Aref.sid = sid; base = "a"; subs = [ Ast.Var "i"; Ast.Var "j" ] } in
  check Alcotest.int "both loops aggregate" 100
    (Vectorize.elems_per_instance p nest ~data ~vars:[ "i"; "j" ] ~placement:0);
  check Alcotest.int "excluding j" 10
    (Vectorize.elems_per_instance p nest ~data ~vars:[ "i" ] ~placement:0);
  check Alcotest.int "inside j" 10
    (Vectorize.elems_per_instance p nest ~data ~vars:[ "i"; "j" ] ~placement:1);
  check Alcotest.int "instances at level 1" 10
    (Vectorize.instances p nest ~data ~placement:1)

(* ------------------------------------------------------------------ *)
(* Whole-program analysis through the core oracle                       *)
(* ------------------------------------------------------------------ *)

(* The classification cases read initial (never-assigned) data on
   purpose, which the default emitter now elides: compile them with the
   paper-faithful options so the schedules under test still exist. *)
let compile src =
  Phpf_core.Compiler.compile_exn
    ~options:Hpf_benchmarks.Variants.selected (parse src)

let test_shift_classified () =
  let c =
    compile
      {|
program t
parameter n = 16
real a(16), b(16)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ align b(i) with a(i)
do i = 2, n
  b(i) = a(i - 1)
end do
end
|}
  in
  match c.Phpf_core.Compiler.comms with
  | [ cm ] ->
      (match cm.Comm.kind with
      | Comm.Shift d ->
          (* delta = consumer position - producer position: the value of
             a(i-1) moves up one position to the owner of b(i) *)
          check Alcotest.int "delta +1" 1 d
      | k -> fail (Fmt.str "kind %a" Comm.pp_kind k));
      check Alcotest.bool "vectorized" true (Comm.vectorized cm);
      check Alcotest.int "boundary elems only" 1 cm.Comm.elems_per_instance
  | l -> fail (Fmt.str "%d comms" (List.length l))

let test_broadcast_classified () =
  let c =
    compile
      {|
program t
parameter n = 16
real a(16)
real s
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
s = a(3) + a(12)
end
|}
  in
  (* s is replicated (top level): both reads are broadcast *)
  check Alcotest.int "two comms" 2 (List.length c.Phpf_core.Compiler.comms);
  List.iter
    (fun (cm : Comm.t) ->
      check Alcotest.bool "broadcast" true (cm.Comm.kind = Comm.Broadcast))
    c.Phpf_core.Compiler.comms

(* A statement that reads one reference twice needs it moved once: one
   descriptor per distinct read of a statement. *)
let test_repeated_read_one_comm () =
  let c =
    compile
      {|
program t
parameter n = 16
real b(16)
real x
!hpf$ processors p(4)
!hpf$ distribute b(block) onto p
do i = 1, n
  x = b(i) + b(i)
end do
b(1) = x
end
|}
  in
  match c.Phpf_core.Compiler.comms with
  | [ cm ] ->
      check Alcotest.string "the read of b(i)" "b(i)"
        (Fmt.str "%a" Pp.pp_expr
           (Ast.Arr (cm.Comm.data.Aref.base, cm.Comm.data.Aref.subs)))
  | l -> fail (Fmt.str "%d comms" (List.length l))

let test_aligned_no_comm () =
  let c =
    compile
      {|
program t
parameter n = 16
real a(16), b(16), c(16)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ align b(i) with a(i)
!hpf$ align c(i) with a(i)
do i = 1, n
  c(i) = a(i) + b(i)
end do
end
|}
  in
  check Alcotest.int "no communication" 0
    (List.length c.Phpf_core.Compiler.comms)

let test_replicated_operand_no_comm () =
  let c =
    compile
      {|
program t
parameter n = 16
real a(16), e(16)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
do i = 1, n
  a(i) = e(i)
end do
end
|}
  in
  check Alcotest.int "replicated rhs: no comm" 0
    (List.length c.Phpf_core.Compiler.comms)

let test_loop_bound_broadcast () =
  let c =
    compile
      {|
program t
parameter n = 16
real a(16)
integer m
real x
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
do i = 1, n
  x = a(i)
  a(i) = x * 2.0
end do
m = 7
do i = 1, m
  a(i) = 0.0
end do
end
|}
  in
  ignore c;
  (* m is computed at top level from constants: replicated, no comm for
     the bound *)
  check Alcotest.bool "no bound comm" true
    (List.for_all
       (fun (cm : Comm.t) -> cm.Comm.data.Aref.base <> "m")
       c.Phpf_core.Compiler.comms)

let test_gather_for_indirect () =
  let c =
    compile
      {|
program t
parameter n = 16
real a(16), b(16)
integer w(16)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ align b(i) with a(i)
do i = 1, n
  b(i) = a(w(i))
end do
end
|}
  in
  let gathers =
    List.filter
      (fun (cm : Comm.t) ->
        cm.Comm.data.Aref.base = "a" && cm.Comm.kind = Comm.Gather)
      c.Phpf_core.Compiler.comms
  in
  check Alcotest.bool "indirect access gathers" true (gathers <> [])

let test_cost_total_positive () =
  let c =
    compile
      {|
program t
parameter n = 16
real a(16), b(16)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ align b(i) with a(i)
do i = 2, n
  b(i) = a(i - 1)
end do
end
|}
  in
  let cost =
    Comm.total_cost Cost_model.sp2 ~nprocs:4 c.Phpf_core.Compiler.comms
  in
  check Alcotest.bool "positive" true (cost > 0.0);
  check Alcotest.bool "zero-latency cheaper" true
    (Comm.total_cost Cost_model.zero_latency ~nprocs:4
       c.Phpf_core.Compiler.comms
    < cost)

let test_inner_loop_comms_query () =
  let c =
    Phpf_core.Compiler.compile_exn ~options:Hpf_benchmarks.Variants.selected
      (Hpf_benchmarks.Fig_examples.fig1 ())
  in
  let inner = Phpf_core.Compiler.inner_loop_comms c in
  check Alcotest.int "fig1: one inner comm (y)" 1 (List.length inner);
  check Alcotest.string "y" "y"
    (List.hd inner).Comm.data.Aref.base

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "comm"
    [
      ( "cost-model",
        [
          Alcotest.test_case "ptp monotone" `Quick test_cost_ptp_monotone;
          Alcotest.test_case "bcast log" `Quick test_cost_bcast_log;
          Alcotest.test_case "log2i exact at powers of two" `Quick
            test_cost_log2i_exact;
          Alcotest.test_case "latency dominates" `Quick
            test_cost_latency_dominates_small;
          Alcotest.test_case "zero latency" `Quick test_cost_zero_latency;
          Alcotest.test_case "transpose" `Quick test_cost_transpose;
        ] );
      ( "vectorize",
        [
          Alcotest.test_case "hoists read-only" `Quick
            test_placement_hoists_readonly;
          Alcotest.test_case "pinned by write" `Quick
            test_placement_pinned_by_write;
          Alcotest.test_case "pinned by non-affine subscript" `Quick
            test_placement_pinned_by_nonaffine_subscript;
          Alcotest.test_case "partial hoist" `Quick test_placement_partial_hoist;
          Alcotest.test_case "elems/instances" `Quick test_elems_per_instance;
        ] );
      ( "classification",
        [
          Alcotest.test_case "shift" `Quick test_shift_classified;
          Alcotest.test_case "broadcast" `Quick test_broadcast_classified;
          Alcotest.test_case "repeated read, one comm" `Quick
            test_repeated_read_one_comm;
          Alcotest.test_case "aligned no comm" `Quick test_aligned_no_comm;
          Alcotest.test_case "replicated operand" `Quick
            test_replicated_operand_no_comm;
          Alcotest.test_case "loop bound" `Quick test_loop_bound_broadcast;
          Alcotest.test_case "gather for indirect" `Quick
            test_gather_for_indirect;
          Alcotest.test_case "cost totals" `Quick test_cost_total_positive;
          Alcotest.test_case "inner-loop query" `Quick
            test_inner_loop_comms_query;
        ] );
    ]
