(* Precise unit tests of the timing simulator's measured quantities:
   statement-instance counting, communication instance counts at the
   vectorized placement, message sizes from measured average trips
   (triangular nests), and shift boundary sizing. *)

open Hpf_lang
open Phpf_core
open Hpf_spmd
module Sir = Phpf_ir.Sir

(* The measured quantities under test are phpf's verbatim schedule:
   compile with the paper-faithful options (Sir optimizer off). *)
module Compiler = struct
  include Compiler

  let compile_exn ?grid_override
      ?(options = Hpf_benchmarks.Variants.selected) p =
    compile_exn ?grid_override ~options p
end

let check = Alcotest.check

let parse src = Sema.check (Parser.parse_string src)

let simulate src =
  let c = Compiler.compile_exn (parse src) in
  let r, _ = Trace_sim.run ~init:(Init.init c.Compiler.prog) c in
  (c, r)

let test_instance_counting () =
  (* triangular nest: 1 (outer Do) + n (inner Do headers) + n(n+1)/2
     assignments, n = 8 *)
  let _, r =
    simulate
      {|
program t
parameter n = 8
real a(8,8)
real x
do k = 1, n
  do i = k, n
    x = a(i, k)
  end do
end do
end
|}
  in
  check Alcotest.int "instances" (1 + 8 + 36) r.Trace_sim.stmt_instances

let test_vectorized_instance_count () =
  (* the shift is hoisted out of the i loop but pinned inside the it loop
     (a is rewritten each outer iteration): exactly niter messages of one
     boundary element each *)
  let _, r =
    simulate
      {|
program t
parameter n = 32
parameter niter = 5
real a(32), b(32)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ align b(i) with a(i)
do it = 1, niter
  do i = 2, n
    b(i) = a(i - 1)
  end do
  do i = 1, n
    a(i) = b(i) * 0.5
  end do
end do
end
|}
  in
  check Alcotest.int "messages = niter" 5 r.Trace_sim.comm_messages;
  check Alcotest.int "boundary elements only" 5 r.Trace_sim.comm_elems

let test_triangular_message_size () =
  (* one fully hoisted broadcast of a triangular region: the measured
     element count must be exactly the number of (k, i) pairs,
     n(n+1)/2 = 36 for n = 8 *)
  let c, r =
    simulate
      {|
program t
parameter n = 8
real a(8,8), w(8)
!hpf$ processors p(4)
!hpf$ distribute a(*, block) onto p
do k = 1, n
  do i = k, n
    w(i) = a(i, k)
  end do
end do
end
|}
  in
  check Alcotest.int "one hoisted comm" 1 (List.length c.Compiler.comms);
  check Alcotest.int "one instance" 1 r.Trace_sim.comm_messages;
  check Alcotest.int "triangular volume" 36 r.Trace_sim.comm_elems

let test_early_exit_reduces_instances () =
  let count cond =
    let _, r =
      simulate
        (Fmt.str
           {|
program t
parameter n = 16
real a(16)
real x
do i = 1, n
  if (%s) exit
  x = a(i)
end do
end
|}
           cond)
    in
    r.Trace_sim.stmt_instances
  in
  let full = count "x < -1.0" (* never exits *) in
  let early = count "i > 4" (* exits on iteration 5 *) in
  check Alcotest.bool "early exit executes fewer instances" true
    (early < full)

let test_comm_free_when_aligned () =
  let _, r =
    simulate
      {|
program t
parameter n = 16
real a(16), b(16)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ align b(i) with a(i)
do i = 1, n
  a(i) = b(i) + 1.0
end do
end
|}
  in
  check Alcotest.int "no messages" 0 r.Trace_sim.comm_messages;
  check (Alcotest.float 1e-12) "no comm time" 0.0 r.Trace_sim.comm_time

let test_compute_charged_to_owners_only () =
  (* owner-computes: at P=4 the busiest clock carries ~1/4 of the total *)
  let _, r =
    simulate
      {|
program t
parameter n = 64
real a(64), b(64)
!hpf$ processors p(4)
!hpf$ distribute a(block) onto p
!hpf$ align b(i) with a(i)
do i = 1, n
  a(i) = b(i) * 2.0 + 1.0
end do
end
|}
  in
  let ratio = r.Trace_sim.compute_total /. r.Trace_sim.compute_max in
  check Alcotest.bool "near-perfect balance" true
    (ratio > 3.5 && ratio <= 4.01)

let test_replication_charges_everyone () =
  let _, r =
    simulate
      {|
program t
parameter n = 64
real e(64)
real x
do i = 1, n
  x = e(i) * 2.0
end do
end
|}
  in
  (* x stays replicated only if not privatizable... it is privatizable
     and no-align: executed by union = all processors on a 1-proc grid
     (no PROCESSORS directive -> grid of 1); compute_total = compute_max *)
  check (Alcotest.float 1e-12) "single processor" r.Trace_sim.compute_max
    r.Trace_sim.compute_total

let test_time_decreases_with_procs () =
  let time p =
    let prog = Hpf_benchmarks.Tomcatv.program ~n:34 ~niter:3 ~p in
    let c = Compiler.compile_exn prog in
    let r, _ = Trace_sim.run ~init:(Init.init c.Compiler.prog) c in
    r.Trace_sim.time
  in
  let t1 = time 1 and t4 = time 4 in
  check Alcotest.bool "t4 < t1" true (t4 < t1)

let test_memory_accounting () =
  (* fig1 at P=4: a,b,c,d block-aligned (25 local elems each), e,f
     replicated (100 each), 4 scalars (x,y,z,m) *)
  let prog = Hpf_benchmarks.Fig_examples.fig1 ~n:100 ~p:4 () in
  let c = Compiler.compile_exn prog in
  let r, _ = Trace_sim.run ~init:(Init.init c.Compiler.prog) c in
  check Alcotest.int "per-proc elements" ((4 * 25) + (2 * 100) + 4)
    r.Trace_sim.mem_elems_max

(* [sir] with the first partitioned guard (statement-id order) of an
   assignment, or of a control statement, widened to every processor;
   the compiled record's own program is left untouched. *)
let widen_first_guard ~control (sir : Sir.program) : Sir.program =
  let widened (ops : Sir.stmt_ops) =
    match ops.Sir.exec with
    | Sir.Guarded_assign g when (not control) && g.computes <> Sir.P_all ->
        Some { ops with exec = Sir.Guarded_assign { g with computes = P_all } }
    | Sir.Control { computes } when control && computes <> Sir.P_all ->
        Some { ops with exec = Sir.Control { computes = P_all } }
    | _ -> None
  in
  let stmts = Hashtbl.copy sir.Sir.stmts in
  (match List.find_map widened (Sir.all_stmt_ops sir) with
  | Some ops -> Hashtbl.replace stmts ops.Sir.sid ops
  | None -> Alcotest.fail "no partitioned guard to widen");
  { sir with Sir.stmts }

(* Compute is charged from the guards of the program being priced, not
   re-derived from the decisions: widening one guard to every processor
   must raise the summed compute time. *)
let test_prices_the_given_sir () =
  List.iter
    (fun (name, prog, control) ->
      let c = Compiler.compile_exn prog in
      let total sir =
        let r, _ = Trace_sim.run ~init:(Init.init c.Compiler.prog) ~sir c in
        r.Trace_sim.compute_total
      in
      let sir = Compiler.sir_exn c in
      let before = total sir in
      let after = total (widen_first_guard ~control sir) in
      check Alcotest.bool
        (Fmt.str "%s: widened guard charges more (%.3e -> %.3e)" name before
           after)
        true (after > before))
    [
      ("fig1", Hpf_benchmarks.Fig_examples.fig1 ~n:40 ~p:4 (), false);
      ("fig7", Hpf_benchmarks.Fig_examples.fig7 ~n:24 ~p:4 (), true);
    ]

let () =
  Alcotest.run "sim"
    [
      ( "measured-quantities",
        [
          Alcotest.test_case "instance counting" `Quick
            test_instance_counting;
          Alcotest.test_case "vectorized instances" `Quick
            test_vectorized_instance_count;
          Alcotest.test_case "triangular volume" `Quick
            test_triangular_message_size;
          Alcotest.test_case "early exit" `Quick
            test_early_exit_reduces_instances;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "aligned is free" `Quick
            test_comm_free_when_aligned;
          Alcotest.test_case "owner-computes balance" `Quick
            test_compute_charged_to_owners_only;
          Alcotest.test_case "single proc" `Quick
            test_replication_charges_everyone;
          Alcotest.test_case "time decreases with P" `Quick
            test_time_decreases_with_procs;
          Alcotest.test_case "memory accounting" `Quick
            test_memory_accounting;
          Alcotest.test_case "prices the Sir it is given" `Quick
            test_prices_the_given_sir;
        ] );
    ]
