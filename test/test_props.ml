(* Property-based tests (qcheck, registered as alcotest cases):

   - pretty-print/parse round trip over randomly generated programs;
   - algebraic laws of affine forms;
   - grid linearization bijectivity;
   - distribution maps: totality, coverage, block contiguity;
   - SSA structural invariants over random programs, and the builder
     and its reached-use table against the references in [Oracles];
   - interpreter determinism, and the resolved (slot-compiled)
     interpreter against the AST walk of [Oracles.Ast_eval];
   - the message layer's streamed checksum and block-corruption pick
     against the list-based payload of [Oracles.Msg_list];
   - the nest's write index against the loop-body walk of
     [Oracles.Loop_walk] for every dependence query;
   - one CLOCK shard of the serve cache against the second-chance
     queue of [Oracles.Clock_queue];
   - [rte]'s deletions decided from one analysis against the
     one-at-a-time loop of [Oracles.rte_loop];
   - lint agrees with execution: a program that validates clean lints
     without an error;
   - the mapping-consistency guarantee of the paper's algorithm. *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping

let gen_checked_program = Prog_gen.gen_checked_program

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck2.Test.make ~name:"print/parse roundtrip" ~count:200
    ~print:(fun p -> Pp.program_to_string p)
    gen_checked_program
    (fun p ->
      let printed = Pp.program_to_string p in
      let p2 = Sema.check (Parser.parse_string printed) in
      String.equal printed (Pp.program_to_string p2))

let gen_affine : Affine.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* const = int_range (-20) 20 in
  let* ci = int_range (-5) 5 in
  let* cj = int_range (-5) 5 in
  let terms =
    List.filter (fun (_, c) -> c <> 0) [ ("i", ci); ("j", cj) ]
  in
  return { Affine.const; terms }

let prop_affine_add_comm =
  QCheck2.Test.make ~name:"affine add commutes" ~count:500
    QCheck2.Gen.(pair gen_affine gen_affine)
    (fun (a, b) -> Affine.equal (Affine.add a b) (Affine.add b a))

let prop_affine_scale_distributes =
  QCheck2.Test.make ~name:"affine scale distributes" ~count:500
    QCheck2.Gen.(triple (int_range (-4) 4) gen_affine gen_affine)
    (fun (k, a, b) ->
      Affine.equal
        (Affine.scale k (Affine.add a b))
        (Affine.add (Affine.scale k a) (Affine.scale k b)))

let prop_affine_to_expr_roundtrip =
  QCheck2.Test.make ~name:"affine to_expr/of_expr" ~count:500 gen_affine
    (fun a ->
      match
        Affine.of_expr
          ~is_index:(fun v -> v = "i" || v = "j")
          ~const_of:(fun _ -> None)
          (Affine.to_expr a)
      with
      | Some a' -> Affine.equal a a'
      | None -> false)

let prop_grid_bijection =
  QCheck2.Test.make ~name:"grid linearize/coords bijective" ~count:200
    QCheck2.Gen.(
      pair (int_range 1 5) (pair (int_range 1 5) (int_range 1 5)))
    (fun (e1, (e2, e3)) ->
      let g = Grid.make [ e1; e2; e3 ] in
      List.for_all
        (fun pid -> Grid.linearize g (Grid.coords g pid) = pid)
        (List.init (Grid.size g) Fun.id))

let prop_dist_total =
  QCheck2.Test.make ~name:"distribution maps positions to valid coords"
    ~count:500
    QCheck2.Gen.(
      triple (int_range 1 8)
        (oneofl [ `Block; `Cyclic; `Bc 3 ])
        (int_range 0 100))
    (fun (nprocs, fmt, pos) ->
      let extent = 101 in
      let f =
        match fmt with
        | `Block -> Dist.Block ((extent + nprocs - 1) / nprocs)
        | `Cyclic -> Dist.Cyclic
        | `Bc k -> Dist.Block_cyclic k
      in
      let c = Dist.owner_coord f ~nprocs pos in
      c >= 0 && c < nprocs)

let prop_block_contiguous =
  QCheck2.Test.make ~name:"block ownership is monotone" ~count:200
    QCheck2.Gen.(pair (int_range 1 8) (int_range 2 64))
    (fun (nprocs, extent) ->
      let f = Dist.Block ((extent + nprocs - 1) / nprocs) in
      let owners =
        List.init extent (fun pos -> Dist.owner_coord f ~nprocs pos)
      in
      (* non-decreasing *)
      fst
        (List.fold_left
           (fun (ok, prev) c -> (ok && c >= prev, c))
           (true, 0) owners))

let prop_ssa_uses_have_defs =
  QCheck2.Test.make ~name:"SSA: every use reached by a def of same var"
    ~count:100
    ~print:(fun p -> Pp.program_to_string p)
    gen_checked_program
    (fun p ->
      let ssa = Ssa.build (Cfg.build p) in
      Hashtbl.fold
        (fun (_, var) d acc -> acc && Ssa.def_var ssa d = var)
        ssa.Ssa.use_def true)

let prop_ssa_phi_args_are_preds =
  QCheck2.Test.make ~name:"SSA: phi args correspond to reachable preds"
    ~count:100
    ~print:(fun p -> Pp.program_to_string p)
    gen_checked_program
    (fun p ->
      let g = Cfg.build p in
      let ssa = Ssa.build g in
      let reach = Cfg.is_reachable g in
      Array.for_all
        (function
          | Ssa.Phi { node; args; _ } ->
              List.for_all
                (fun (pred, _) ->
                  reach.(pred) && List.mem pred (Cfg.node g node).Cfg.preds)
                args
          | Ssa.Entry_def _ | Ssa.Node_def _ -> true)
        ssa.Ssa.defs)

(* The builder against the scanning one and the reached-use table
   against the walk ([Oracles.ssa_vs_reference]).  Nothing here
   compiles a program, so this group is cheap under any seed. *)
let ssa_vs_reference p =
  match Oracles.ssa_vs_reference (Cfg.build p) with
  | Ok _ -> true
  | Error why -> QCheck2.Test.fail_report why

let prop_ssa_vs_reference =
  QCheck2.Test.make ~name:"SSA = reference on generated programs" ~count:300
    ~print:(fun p -> Pp.program_to_string p)
    gen_checked_program ssa_vs_reference

let prop_ssa_vs_reference_composed =
  QCheck2.Test.make ~name:"SSA = reference on composed programs" ~count:100
    ~print:(fun p -> Pp.program_to_string p)
    (QCheck2.Gen.map (Prog_gen.compose 3) gen_checked_program)
    ssa_vs_reference

let prop_interp_deterministic =
  QCheck2.Test.make ~name:"interpreter deterministic" ~count:50
    ~print:(fun p -> Pp.program_to_string p)
    gen_checked_program
    (fun p ->
      let open Hpf_spmd in
      let run () =
        let m = Seq_interp.run ~init:(Init.init p) p in
        Fmt.str "%a %a %a" Value.pp
          (Memory.get_scalar m "x")
          Value.pp
          (Memory.get_scalar m "y")
          Value.pp
          (Memory.get_elem m "a" [ 3 ])
      in
      String.equal (run ()) (run ()))

(* The compiled interpreter and the AST walk agree on the final memory,
   the statement-instance sequence and any error.  Nothing here
   compiles a program, so this group is cheap under any seed. *)
let resolved_vs_ast p =
  match Oracles.resolved_vs_ast ~init:(Hpf_spmd.Init.init p) p with
  | None -> true
  | Some why -> QCheck2.Test.fail_report why

let prop_resolved_vs_ast =
  QCheck2.Test.make ~name:"resolved = AST on generated programs" ~count:300
    ~print:(fun p -> Pp.program_to_string p)
    gen_checked_program resolved_vs_ast

let prop_resolved_vs_ast_composed =
  QCheck2.Test.make ~name:"resolved = AST on composed programs" ~count:60
    ~print:(fun p -> Pp.program_to_string p)
    (QCheck2.Gen.map (Prog_gen.compose 3) gen_checked_program)
    resolved_vs_ast

(* Payloads of every kind, ranks 0 to 3, with ints, reals and bools at
   their edges: negative and extreme ints, -0.0, NaN, infinities and
   extreme magnitudes.  Nothing here compiles a program, so this group
   is cheap under any seed. *)
let gen_value : Hpf_spmd.Value.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Hpf_spmd in
  oneof
    [
      map
        (fun n -> Value.I n)
        (oneof [ int; int_range (-9) 9; oneofl [ min_int; max_int; -1; 0 ] ]);
      map
        (fun f -> Value.R f)
        (oneof
           [
             float;
             oneofl
               [
                 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity;
                 Float.max_float; -.Float.max_float; Float.min_float; 5e-324;
                 -1.5e300;
               ];
           ]);
      map (fun b -> Value.B b) bool;
    ]

let gen_payload : Hpf_spmd.Msg.payload QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Hpf_spmd in
  let* name = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let* addr = int_range 0 40 in
  let* rank = int_range 0 3 in
  let sub = oneof [ int_range (-4) 70; int ] in
  oneof
    [
      map
        (fun value -> Msg.Scalar { var = name; slot = addr; value })
        gen_value;
      map2
        (fun index value -> Msg.Elem { base = name; cell = addr; index; value })
        (array_size (return rank) sub)
        gen_value;
      (let* n = int_range 0 12 in
       let* indices = array_size (return (n * rank)) sub in
       let* values = array_size (return n) gen_value in
       return (Msg.Block { base = name; addr; rank; indices; values }));
    ]

let print_payload (p : Hpf_spmd.Msg.payload) : string =
  let open Hpf_spmd in
  let ints = Fmt.(array ~sep:(any ",") int) in
  let value ppf v =
    Fmt.pf ppf "%a[%a]" Value.pp v
      Fmt.(list ~sep:(any ",") int)
      (Oracles.Msg_list.value_bits v)
  in
  match p with
  | Msg.Scalar { var; slot; value = v } ->
      Fmt.str "Scalar %s@%d = %a" var slot value v
  | Msg.Elem { base; cell; index; value = v } ->
      Fmt.str "Elem %s@%d (%a) = %a" base cell ints index value v
  | Msg.Block { base; addr; rank; indices; values } ->
      Fmt.str "Block %s@%d rank %d (%a) = %a" base addr rank ints indices
        Fmt.(array ~sep:(any "; ") value)
        values

let prop_msg_checksum =
  QCheck2.Test.make ~name:"streamed checksum = list checksum" ~count:2000
    ~print:print_payload gen_payload (fun p ->
      Hpf_spmd.Msg.checksum p
      = Oracles.Msg_list.checksum (Oracles.Msg_list.of_payload p))

(* [Fault.corrupt_payload] leaves its argument alone and changes the
   value image of exactly the element the list-based pick names: the
   one value of a scalar or element payload, one element of a block. *)
let prop_msg_corrupt_pick =
  QCheck2.Test.make ~name:"block corruption damages the oracle's pick"
    ~count:2000 ~print:print_payload gen_payload (fun p ->
      let open Hpf_spmd in
      let module L = Oracles.Msg_list in
      let image q = L.image (L.of_payload q) in
      let before = image p in
      let damaged = Fault.corrupt_payload p in
      let same a b = L.value_bits a = L.value_bits b in
      image p = before
      &&
      match (p, damaged) with
      | Msg.Scalar a, Msg.Scalar b ->
          a.var = b.var && not (same a.value b.value)
      | Msg.Elem a, Msg.Elem b ->
          a.index = b.index && not (same a.value b.value)
      | Msg.Block a, Msg.Block b ->
          let pick = L.block_pick (Array.to_list a.values) in
          a.indices = b.indices
          && Array.length a.values = Array.length b.values
          && List.for_all
               (fun k -> same a.values.(k) b.values.(k) = (k <> pick))
               (List.init (Array.length a.values) Fun.id)
      | _ -> false)

(* The write index answers every dependence query like the walk of the
   loop body ([Oracles.Loop_walk]): every read reference, at every
   enclosing level.  Nothing here compiles a program, so this group is
   cheap under any seed. *)
let depend_vs_walk p =
  match Oracles.Loop_walk.index_vs_walk p with
  | Ok _ -> true
  | Error why -> QCheck2.Test.fail_report why

let prop_depend_vs_walk =
  QCheck2.Test.make ~name:"write index = walk on generated programs"
    ~count:200
    ~print:(fun p -> Pp.program_to_string p)
    gen_checked_program depend_vs_walk

let prop_depend_vs_walk_composed =
  QCheck2.Test.make ~name:"write index = walk on composed programs"
    ~count:60
    ~print:(fun p -> Pp.program_to_string p)
    (QCheck2.Gen.map (Prog_gen.compose 3) gen_checked_program)
    depend_vs_walk

(* Random find/add/clear sequences through a one-shard cache of [k]
   entries and the second-chance queue [Oracles.Clock_queue]: every
   lookup and every insert answers alike, and the shard holds what the
   queue holds, never more than [k] entries.  An add stores its step
   number, so a lost first insertion shows as a different value.
   Nothing here compiles a program, so this group is cheap under any
   seed. *)
type memo_op = Find of int | Add of int | Clear

let gen_memo_case : (int * memo_op list) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* k = int_range 1 6 in
  let key = int_range 0 ((2 * k) + 2) in
  let op =
    frequency
      [
        (6, map (fun i -> Find i) key);
        (4, map (fun i -> Add i) key);
        (1, return Clear);
      ]
  in
  let* ops = list_size (int_range 0 80) op in
  return (k, ops)

let print_memo_case (k, ops) =
  Fmt.str "capacity %d: %a" k
    Fmt.(
      list ~sep:(any "; ") (fun ppf -> function
        | Find i -> pf ppf "find %d" i
        | Add i -> pf ppf "add %d" i
        | Clear -> string ppf "clear"))
    ops

let prop_memo_vs_queue =
  QCheck2.Test.make ~name:"one-shard cache = second-chance queue" ~count:1000
    ~print:print_memo_case gen_memo_case (fun (k, ops) ->
      let module Memo = Phpf_driver.Memo in
      let module Q = Oracles.Clock_queue in
      let m = Memo.create ~shards:1 ~capacity:k () and q = Q.create k in
      let pp_found = Fmt.(option ~none:(any "miss") int) in
      List.iteri
        (fun step op ->
          (match op with
          | Find i ->
              let got = Memo.find_opt m (string_of_int i)
              and want = Q.find q (string_of_int i) in
              if got <> want then
                QCheck2.Test.fail_reportf
                  "step %d, find %d: %a, the queue %a" step i pp_found got
                  pp_found want
          | Add i ->
              let got = Memo.add m (string_of_int i) step
              and want = Q.add q (string_of_int i) step in
              if got <> want then
                QCheck2.Test.fail_reportf
                  "step %d, add %d: inserted %b, the queue %b" step i got want
          | Clear ->
              Memo.clear m;
              Q.clear q);
          let entries = (Memo.counters m).Memo.entries in
          if entries <> Q.entries q || entries > k then
            QCheck2.Test.fail_reportf
              "step %d: %d entries, the queue holds %d" step entries
              (Q.entries q))
        ops;
      true)

(* [rte]'s one analysis deletes what the one-at-a-time loop deletes,
   with the same witnesses, both after [dte] and alone (where dead
   transfers stay in the program), under every optimizing option set of
   the serve workload. *)
let prop_rte_vs_loop =
  QCheck2.Test.make ~name:"rte one analysis = loop on generated programs"
    ~count:30
    ~print:(fun p -> Pp.program_to_string p)
    gen_checked_program
    (fun p ->
      let open Phpf_core in
      let open Phpf_ir in
      List.for_all
        (fun (_, options) ->
          let lowered = Oracles.relower (Compiler.compile_exn ~options p) in
          let after_dte =
            { lowered with Sir.stmts = Hashtbl.copy lowered.Sir.stmts }
          in
          ignore (Sir_opt.dte after_dte);
          List.for_all
            (fun sir ->
              match Oracles.rte_vs_loop sir with
              | Ok _ -> true
              | Error why -> QCheck2.Test.fail_report why)
            [ after_dte; lowered ])
        (List.filter
           (fun (_, o) -> o.Decisions.optimize)
           Phpf_serve.Serve.workload_option_sets))

(* Lint agrees with execution: a generated program whose SPMD run
   validates clean under the default options and --no-opt lints without
   an error under the same options. *)
let lint_agrees_with_validate p =
  let open Phpf_core in
  List.for_all
    (fun options ->
      let c = Compiler.compile_exn ~options p in
      let st =
        Hpf_spmd.Spmd_interp.run ~init:(Hpf_spmd.Init.init c.Compiler.prog) c
      in
      Hpf_spmd.Spmd_interp.validate st <> []
      ||
      match Phpf_verify.Verifier.verify ~opts:options c with
      | Ok (findings, _) -> (
          match List.filter Diag.is_error findings with
          | [] -> true
          | errs ->
              QCheck2.Test.fail_reportf "validates clean, lints with %a"
                Diag.pp_list errs)
      | Error ds ->
          QCheck2.Test.fail_reportf "verifier failed: %a" Diag.pp_list ds)
    [
      Decisions.default_options;
      { Decisions.default_options with Decisions.optimize = false };
    ]

let prop_lint_agrees =
  QCheck2.Test.make ~name:"validates clean => lints clean" ~count:100
    ~print:(fun p -> Pp.program_to_string p)
    gen_checked_program lint_agrees_with_validate

let prop_lint_agrees_composed =
  QCheck2.Test.make ~name:"validates clean => lints clean, composed"
    ~count:30
    ~print:(fun p -> Pp.program_to_string p)
    (QCheck2.Gen.map (Prog_gen.compose 3) gen_checked_program)
    lint_agrees_with_validate

let prop_mapping_consistency =
  QCheck2.Test.make
    ~name:"mapping: reaching defs of any use share one mapping" ~count:100
    ~print:(fun p -> Pp.program_to_string p)
    gen_checked_program
    (fun p ->
      let open Phpf_core in
      let c = Compiler.compile_exn p in
      let d = c.Compiler.decisions in
      let ssa = d.Decisions.ssa in
      Hashtbl.fold
        (fun (node, var) _ acc ->
          acc
          &&
          let mappings =
            Ssa.reaching_defs ssa ~node ~var
            |> List.map (fun def ->
                   Fmt.str "%a" Decisions.pp_scalar_mapping
                     (Decisions.scalar_mapping_of_def d def))
            |> List.sort_uniq compare
          in
          List.length mappings <= 1)
        ssa.Ssa.use_def true)

(* Fault campaigns at scale are reproducible: the same (spec, seed) on
   fig1 at P=256 yields a bit-identical recovery report — injections,
   detector counters, plan/failover counters, priced recovery time —
   across two independent runs, and both validate clean. *)
let prop_recovery_report_deterministic =
  QCheck2.Test.make ~name:"P=256 recovery report deterministic" ~count:3
    ~print:string_of_int
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let open Phpf_core in
      let open Hpf_spmd in
      let run () =
        let prog = Hpf_benchmarks.Fig_examples.fig1 ~n:256 ~p:256 () in
        let c = Compiler.compile_exn prog in
        let faults =
          Fault.make ~seed [ (Fault.Crash, 0.02); (Fault.Stall, 0.02) ]
        in
        let st =
          Spmd_interp.run ~init:(Init.init c.Compiler.prog) ~faults
            ?sir:c.Compiler.sir c
        in
        (Spmd_interp.validate st, Spmd_interp.fault_report st)
      in
      let v1, r1 = run () in
      let v2, r2 = run () in
      v1 = [] && v2 = [] && r1 = r2)

let prop_spmd_matches_reference =
  QCheck2.Test.make ~name:"SPMD execution matches reference" ~count:40
    ~print:(fun p -> Pp.program_to_string p)
    gen_checked_program
    (fun p ->
      let open Phpf_core in
      let open Hpf_spmd in
      let c = Compiler.compile_exn p in
      let st = Spmd_interp.run ~init:(Init.init c.Compiler.prog) c in
      Spmd_interp.validate st = [])

let prop_compile_deterministic =
  QCheck2.Test.make ~name:"compilation is deterministic" ~count:40
    ~print:(fun p -> Pp.program_to_string p)
    gen_checked_program
    (fun p ->
      let open Phpf_core in
      let render () = Report.to_string (Compiler.compile_exn p) in
      String.equal (render ()) (render ()))

let prop_reports_render =
  QCheck2.Test.make ~name:"reports render without exception" ~count:60
    ~print:(fun p -> Pp.program_to_string p)
    gen_checked_program
    (fun p ->
      let open Phpf_core in
      let c = Compiler.compile_exn p in
      let (_ : string) = Report.to_string c in
      let (_ : string) = Fmt.str "%a" Report.pp_annotated c in
      true)

let () =
  (* The seed is pinned so tier-1 and CI are deterministic; set
     QCHECK_SEED to explore another.  Generated programs used to keep
     sir-opt.rte and verify-sir's replay of it busy for minutes (every
     deletion re-ran a full dataflow summary): on a 2-core host the
     pinned suite took 60 s and seeds 1-6 took 26 s to over 200 s.
     With the interned dataflow core the pinned suite takes ~4 s and
     seeds 1-6 take 3-8 s.  Compiles are still unbounded, so CI keeps
     the pin. *)
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | None -> 12075110
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n -> n
        | None -> invalid_arg ("QCHECK_SEED is not an integer: " ^ s))
  in
  Printf.printf "test_props: QCheck seed %d\n%!" seed;
  let to_alco t =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
  in
  Alcotest.run "properties"
    [
      ( "lang",
        [ to_alco prop_roundtrip ] );
      ( "affine",
        [
          to_alco prop_affine_add_comm;
          to_alco prop_affine_scale_distributes;
          to_alco prop_affine_to_expr_roundtrip;
        ] );
      ( "mapping",
        [
          to_alco prop_grid_bijection;
          to_alco prop_dist_total;
          to_alco prop_block_contiguous;
        ] );
      ( "ssa",
        [
          to_alco prop_ssa_uses_have_defs;
          to_alco prop_ssa_phi_args_are_preds;
          to_alco prop_ssa_vs_reference;
          to_alco prop_ssa_vs_reference_composed;
        ] );
      ( "runtime",
        [
          to_alco prop_interp_deterministic;
          to_alco prop_recovery_report_deterministic;
        ] );
      ( "resolve",
        [ to_alco prop_resolved_vs_ast; to_alco prop_resolved_vs_ast_composed ] );
      ("msg", [ to_alco prop_msg_checksum; to_alco prop_msg_corrupt_pick ]);
      ( "depend",
        [ to_alco prop_depend_vs_walk; to_alco prop_depend_vs_walk_composed ] );
      ("memo", [ to_alco prop_memo_vs_queue ]);
      ("lint", [ to_alco prop_lint_agrees; to_alco prop_lint_agrees_composed ]);
      ( "core",
        [
          to_alco prop_mapping_consistency;
          to_alco prop_spmd_matches_reference;
          to_alco prop_rte_vs_loop;
          to_alco prop_compile_deterministic;
          to_alco prop_reports_render;
        ] );
    ]
