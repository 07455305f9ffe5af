(* Pass-manager tests: pipeline trace contents, per-flag pass gating,
   recorded statistics, the after-hook, the result-based compile entry
   points, and a scaling guard that reads each pass's allocation
   through the after-hooks. *)

open Hpf_lang
open Phpf_core
module Pipeline = Phpf_driver.Pipeline
module Stats = Phpf_driver.Stats

let check = Alcotest.check
let fail = Alcotest.fail
let slist = Alcotest.(list string)

let fig1 () = Hpf_benchmarks.Fig_examples.fig1 ~n:40 ~p:4 ()

let trace_of ?options prog =
  match Compiler.compile_traced ?options prog with
  | Ok (_, trace) -> trace
  | Error ds -> fail (Fmt.str "unexpected diagnostics: %a" Diag.pp_list ds)

(* ------------------------------------------------------------------ *)
(* Trace shape                                                         *)
(* ------------------------------------------------------------------ *)

let test_default_runs_all_passes () =
  let trace = trace_of (fig1 ()) in
  check slist "all passes execute in registration order" Compiler.pass_names
    (Pipeline.executed trace);
  check slist "nothing skipped" [] trace.Pipeline.skipped;
  List.iter
    (fun (e : Pipeline.entry) ->
      check Alcotest.bool
        (Fmt.str "%s time is non-negative" e.Pipeline.pass)
        true
        (e.Pipeline.time_s >= 0.0))
    trace.Pipeline.entries

(* Each optimization flag must drop exactly its pass from the trace —
   nothing more, nothing less. *)
let gating_cases =
  [
    ( "scalar-map",
      fun o -> { o with Decisions.privatize_scalars = false } );
    ( "reduction-map",
      fun o -> { o with Decisions.reduction_alignment = false } );
    ("array-priv", fun o -> { o with Decisions.privatize_arrays = false });
    ("ctrl-priv", fun o -> { o with Decisions.privatize_control = false });
  ]

let test_flag_drops_exactly_one_pass (pass, flip) () =
  let options = flip Decisions.default_options in
  let trace = trace_of ~options (fig1 ()) in
  check slist
    (Fmt.str "disabling drops only %s" pass)
    (List.filter (fun n -> n <> pass) Compiler.pass_names)
    (Pipeline.executed trace);
  check slist (Fmt.str "%s reported as skipped" pass) [ pass ]
    trace.Pipeline.skipped

let test_all_flags_off () =
  let options =
    {
      Decisions.default_options with
      Decisions.privatize_scalars = false;
      reduction_alignment = false;
      privatize_arrays = false;
      privatize_control = false;
      optimize = false;
    }
  in
  let trace = trace_of ~options (fig1 ()) in
  check slist "only the ungated passes remain"
    [
      "sema"; "induction"; "decisions"; "comm-analysis"; "lower-spmd";
      "recovery-plan";
    ]
    (Pipeline.executed trace)

(* ------------------------------------------------------------------ *)
(* Recorded statistics                                                 *)
(* ------------------------------------------------------------------ *)

let stat trace pass key =
  match Pipeline.stats_of trace pass with
  | None -> fail (Fmt.str "pass %s did not run" pass)
  | Some kvs -> ( try List.assoc key kvs with Not_found -> 0)

let test_stats_recorded () =
  let trace = trace_of (fig1 ()) in
  check Alcotest.bool "sema counts statements" true
    (stat trace "sema" "program.stmts" > 0);
  check Alcotest.bool "fig1 aligns at least one def" true
    (stat trace "scalar-map" "defs.aligned" >= 1);
  let total = stat trace "comm-analysis" "comms.total" in
  let vectorized = stat trace "comm-analysis" "comms.vectorized" in
  let inner = stat trace "comm-analysis" "comms.inner-loop" in
  check Alcotest.bool "comm counters are consistent" true
    (vectorized >= 0 && inner >= 0 && vectorized + inner <= total)

let test_grid_stat_tracks_override () =
  match Compiler.compile_traced ~grid_override:[ 8 ] (fig1 ()) with
  | Error ds -> fail (Fmt.str "unexpected: %a" Diag.pp_list ds)
  | Ok (_, trace) ->
      check Alcotest.int "grid.procs reflects the override" 8
        (stat trace "decisions" "grid.procs")

(* ------------------------------------------------------------------ *)
(* After-hook and result API                                           *)
(* ------------------------------------------------------------------ *)

let test_after_hook_order () =
  let seen = ref [] in
  let after name (_ : Compiler.context) = seen := name :: !seen in
  (match Compiler.compile_traced ~after (fig1 ()) with
  | Error ds -> fail (Fmt.str "unexpected: %a" Diag.pp_list ds)
  | Ok (_, trace) ->
      check slist "after-hook fires once per executed pass, in order"
        (Pipeline.executed trace) (List.rev !seen))

let test_compile_error_result () =
  let p = Parser.parse_string "program t\nreal x\nx = y\nend" in
  match Compiler.compile p with
  | Ok _ -> fail "expected Error"
  | Error (d :: _) -> check Alcotest.string "code" "E0301" d.Diag.code
  | Error [] -> fail "empty diagnostics"

let kvs = Alcotest.(list (pair string int))

let test_stats_merge () =
  let a = Stats.of_list [ ("x", 1); ("y", 2) ] in
  let b = Stats.of_list [ ("y", 3); ("z", 4) ] in
  let m = Stats.merge a b in
  check kvs "merge sums per key"
    [ ("x", 1); ("y", 5); ("z", 4) ]
    (Stats.to_sorted_list m);
  check kvs "merge leaves a intact" [ ("x", 1); ("y", 2) ]
    (Stats.to_sorted_list a);
  check kvs "merge leaves b intact" [ ("y", 3); ("z", 4) ]
    (Stats.to_sorted_list b);
  Stats.merge_into ~into:a b;
  check kvs "merge_into accumulates"
    [ ("x", 1); ("y", 5); ("z", 4) ]
    (Stats.to_sorted_list a);
  check kvs "merge_all sums a list"
    [ ("x", 3); ("y", 10); ("z", 8) ]
    (Stats.merge_all [ Stats.of_list [ ("x", 1) ]; m; m ]
    |> Stats.to_sorted_list);
  check kvs "merge_all [] is empty" []
    (Stats.to_sorted_list (Stats.merge_all []));
  check kvs "of_list accumulates repeats" [ ("x", 3) ]
    (Stats.to_sorted_list (Stats.of_list [ ("x", 1); ("x", 2) ]))

let test_trace_helpers () =
  let trace = trace_of (fig1 ()) in
  let total = Pipeline.total_stats trace in
  check Alcotest.int "total_stats merges per-pass counters"
    (stat trace "sema" "program.stmts")
    (Stats.get total "program.stmts")

(* ------------------------------------------------------------------ *)
(* Memo: the content-addressed result cache                            *)
(* ------------------------------------------------------------------ *)

module Memo = Phpf_driver.Memo

let test_memo_basic () =
  let m = Memo.create () in
  let k1 = Memo.key ~source:"src" ~options:"o1" ~grid:"-" ~pass:"compile" in
  let k2 = Memo.key ~source:"src" ~options:"o2" ~grid:"-" ~pass:"compile" in
  let k3 = Memo.key ~source:"src" ~options:"o1" ~grid:"4" ~pass:"compile" in
  let k4 = Memo.key ~source:"src" ~options:"o1" ~grid:"-" ~pass:"lint" in
  check Alcotest.bool "any key component separates entries" true
    (List.length (List.sort_uniq compare [ k1; k2; k3; k4 ]) = 4);
  check (Alcotest.option Alcotest.int) "miss" None (Memo.find_opt m k1);
  check Alcotest.bool "add of a fresh key inserts" true (Memo.add m k1 1);
  check (Alcotest.option Alcotest.int) "hit" (Some 1) (Memo.find_opt m k1);
  check Alcotest.bool "add of a present key loses" false (Memo.add m k1 99);
  check (Alcotest.option Alcotest.int) "first insertion wins" (Some 1)
    (Memo.find_opt m k1);
  check Alcotest.int "find_or_add computes on miss" 2
    (Memo.find_or_add m k2 (fun () -> 2));
  check Alcotest.int "find_or_add returns cached" 2
    (Memo.find_or_add m k2 (fun () -> 99));
  let c = Memo.counters m in
  check Alcotest.bool "counters track hits and misses" true
    (c.Memo.hits >= 2 && c.Memo.misses >= 2 && c.Memo.entries = 2);
  Memo.clear m;
  check Alcotest.int "clear resets counters" 0 (Memo.counters m).Memo.misses;
  check (Alcotest.option Alcotest.int) "clear drops entries" None
    (Memo.find_opt m k1)

let test_memo_concurrent () =
  (* many domains hammering a small key space: every lookup must agree
     with the first-inserted value for its key *)
  let m = Memo.create () in
  let keys =
    Array.init 8 (fun i ->
        Memo.key ~source:(string_of_int i) ~options:"o" ~grid:"-" ~pass:"p")
  in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let bad = ref 0 in
            for i = 0 to 999 do
              let k = keys.(i mod 8) in
              let v = Memo.find_or_add m k (fun () -> i mod 8) in
              if v <> i mod 8 then incr bad
            done;
            ignore d;
            !bad))
  in
  let bad = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  check Alcotest.int "no stale or torn values" 0 bad;
  check Alcotest.int "one entry per key" 8 (Memo.counters m).Memo.entries

let test_stats_counters () =
  let st = Stats.create () in
  check Alcotest.int "untouched is 0" 0 (Stats.get st "x");
  Stats.incr st "x";
  Stats.add st "x" 2;
  Stats.set st "y" 7;
  check Alcotest.int "incr+add" 3 (Stats.get st "x");
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "sorted listing"
    [ ("x", 3); ("y", 7) ]
    (Stats.to_sorted_list st)

(* ------------------------------------------------------------------ *)
(* Scaling                                                             *)
(* ------------------------------------------------------------------ *)

(* Minor words each compile and verifier pass allocates, read between
   consecutive after-hooks, over one compile and lint of [prog]. *)
let pass_words (prog : Ast.program) : (string * float) list =
  let out = ref [] and last = ref (Gc.minor_words ()) in
  let mark name _ =
    let now = Gc.minor_words () in
    out := (name, now -. !last) :: !out;
    last := now
  in
  let c =
    match Compiler.compile_traced ~after:mark prog with
    | Ok (c, _) -> c
    | Error ds -> fail (Fmt.str "does not compile: %a" Diag.pp_list ds)
  in
  last := Gc.minor_words ();
  (match Phpf_verify.Verifier.verify ~after:mark c with
  | Ok _ -> ()
  | Error ds -> fail (Fmt.str "verifier failed: %a" Diag.pp_list ds));
  List.rev !out

(* Compile plus lint of tomcatv's time step composed 16 and 32 times:
   the layers whose cost used to grow quadratically with the program
   (dependence queries that walked the loop body, rte re-running its
   fixpoints after every deletion, statement lookups that walked the
   program, hoist walking the time-step loop per prefix index, the
   recovery plan appending each datum's writers one at a time) allocate
   at most 2.5 times as much at twice the size. *)
let test_linear_allocation () =
  let tomcatv k =
    Prog_gen.compose k (Hpf_benchmarks.Tomcatv.program ~n:66 ~niter:1 ~p:4)
  in
  let w16 = pass_words (tomcatv 16) and w32 = pass_words (tomcatv 32) in
  List.iter
    (fun pass ->
      match (List.assoc_opt pass w16, List.assoc_opt pass w32) with
      | Some a, Some b ->
          if b > 2.5 *. a then
            fail
              (Fmt.str
                 "%s allocates %.0f words at x16 and %.0f at x32 (x%.2f > 2.5)"
                 pass a b (b /. a))
      | _ -> fail (pass ^ " did not run"))
    [
      "scalar-map"; "comm-analysis"; "lower-spmd"; "sir-opt.rte";
      "sir-opt.hoist"; "recovery-plan"; "verify-comm";
    ]

(* ------------------------------------------------------------------ *)
(* One SSA per compile                                                 *)
(* ------------------------------------------------------------------ *)

(* Induction leaves tomcatv composed 8 times unchanged (it has no
   induction variable), so the decisions pass reuses its SSA instead of
   building a second one: what decisions allocates besides (the nest,
   the dependence forms, layouts, privatizability, reductions) is a
   small part of what building the SSA takes. *)
let test_decisions_reuses_ssa () =
  let prog =
    Prog_gen.compose 8 (Hpf_benchmarks.Tomcatv.program ~n:66 ~niter:1 ~p:4)
  in
  let w = pass_words prog in
  let words pass =
    match List.assoc_opt pass w with
    | Some x -> x
    | None -> fail (pass ^ " did not run")
  in
  let induction = words "induction" and decisions = words "decisions" in
  if decisions > induction /. 4.0 then
    fail
      (Fmt.str
         "decisions allocates %.0f words, induction %.0f (x%.2f > 0.25): a \
          second SSA build?"
         decisions induction (decisions /. induction))

(* After a rewrite the decisions pass builds the SSA of the rewritten
   program: on fig1 (one induction variable) the compiled record's SSA
   is that of [c.prog] and agrees with the scanning builder's. *)
let test_rewritten_program_ssa () =
  let c = Compiler.compile_exn (Hpf_benchmarks.Fig_examples.fig1 ()) in
  let ssa = c.Compiler.decisions.Decisions.ssa in
  check Alcotest.int "fig1 has one induction variable" 1
    (List.length c.Compiler.ivs);
  check Alcotest.bool "the SSA is built on the rewritten program" true
    (ssa.Hpf_analysis.Ssa.cfg.Hpf_analysis.Cfg.prog == c.Compiler.prog);
  match Oracles.ssa_agrees ssa with
  | Ok _ -> ()
  | Error why -> fail why

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "driver"
    [
      ( "trace",
        [
          Alcotest.test_case "default runs all passes" `Quick
            test_default_runs_all_passes;
          Alcotest.test_case "all flags off" `Quick test_all_flags_off;
        ] );
      ( "gating",
        List.map
          (fun ((pass, _) as case) ->
            Alcotest.test_case
              (Fmt.str "flag drops %s" pass)
              `Quick
              (test_flag_drops_exactly_one_pass case))
          gating_cases );
      ( "stats",
        [
          Alcotest.test_case "pass counters recorded" `Quick
            test_stats_recorded;
          Alcotest.test_case "grid override stat" `Quick
            test_grid_stat_tracks_override;
          Alcotest.test_case "counter primitives" `Quick test_stats_counters;
          Alcotest.test_case "merge laws" `Quick test_stats_merge;
          Alcotest.test_case "trace helpers" `Quick test_trace_helpers;
        ] );
      ( "memo",
        [
          Alcotest.test_case "key separation and counters" `Quick
            test_memo_basic;
          Alcotest.test_case "concurrent find_or_add" `Quick
            test_memo_concurrent;
        ] );
      ( "api",
        [
          Alcotest.test_case "after-hook order" `Quick test_after_hook_order;
          Alcotest.test_case "compile returns Error" `Quick
            test_compile_error_result;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "allocation linear from x16 to x32" `Quick
            test_linear_allocation;
        ] );
      ( "one ssa",
        [
          Alcotest.test_case "decisions reuses induction's SSA" `Quick
            test_decisions_reuses_ssa;
          Alcotest.test_case "a rewritten program's SSA" `Quick
            test_rewritten_program_ssa;
        ] );
    ]
