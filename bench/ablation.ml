(* Ablation benches for the design choices DESIGN.md calls out:

   1. consumer-over-producer preference with the inner-loop veto
      (already Table 1's columns; here shown per-communication);
   2. the cost model's placement awareness: with a zero-latency network
      the mapping choice stops mattering — evidence that the win comes
      from message counts, not flops;
   3. reduction-combine group sizing (paper §2.3). *)

open Hpf_comm
open Phpf_core
open Hpf_spmd
open Hpf_benchmarks

let time_with model prog options =
  let c = Compiler.compile_exn ~options prog in
  let r, _ = Trace_sim.run ~model ~init:(Init.init c.Compiler.prog) c in
  r.Trace_sim.time

(* Ablation 5: privatization vs scalar expansion (paper section 6) *)
let run_expansion () =
  let prog = Fig_examples.fig1 ~n:100 ~p:8 () in
  Fmt.pr
    "@.Ablation 5: Fig. 1 (P=8) — privatization vs scalar expansion (paper section 6)@.";
  let run name c =
    let r, _ = Trace_sim.run ~init:(Init.init c.Compiler.prog) c in
    Fmt.pr "  %-16s time %.6fs   mem %5d elems/proc   comms %d@." name
      r.Trace_sim.time r.Trace_sim.mem_elems_max
      (List.length c.Compiler.comms);
    r
  in
  let priv = Compiler.compile_exn prog in
  let expanded, exps = Expansion.run prog in
  List.iter
    (fun e -> Fmt.pr "  expanding %a@." Expansion.pp_expansion e)
    exps;
  let exp = Compiler.compile_exn expanded in
  let rp = run "privatization" priv in
  let re = run "expansion" exp in
  Fmt.pr
    "  expansion reproduces the communication structure but pays %d extra@."
    (re.Trace_sim.mem_elems_max - rp.Trace_sim.mem_elems_max);
  Fmt.pr
    "  elements per processor — the storage the paper's approach avoids.@."

let run () =
  let p = 8 in
  let prog = Tomcatv.program ~n:66 ~niter:10 ~p in
  Fmt.pr "Ablation 1: TOMCATV (P=%d) — vectorizable vs inner-loop comms per variant@." p;
  List.iter
    (fun (name, options) ->
      let c = Compiler.compile_exn ~options prog in
      let inner =
        List.length (List.filter Comm.in_innermost_loop c.Compiler.comms)
      in
      let vectorized =
        List.length (List.filter Comm.vectorized c.Compiler.comms)
      in
      Fmt.pr "  %-20s : %d comms (%d vectorized, %d inner-loop)@." name
        (List.length c.Compiler.comms)
        vectorized inner)
    [
      ("replication", Variants.replication);
      ("producer", Variants.producer_alignment);
      ("selected", Variants.selected);
    ];
  Fmt.pr "@.Ablation 2: TOMCATV (P=%d) — SP2 network vs idealized zero-latency network@." p;
  List.iter
    (fun (name, options) ->
      let sp2 = time_with Cost_model.sp2 prog options in
      let zero = time_with Cost_model.zero_latency prog options in
      Fmt.pr "  %-20s : sp2 %.4fs   zero-latency %.4fs   (network accounts for %.0f%%)@."
        name sp2 zero
        (100.0 *. (sp2 -. zero) /. sp2))
    [
      ("producer", Variants.producer_alignment);
      ("selected", Variants.selected);
    ];
  Fmt.pr "@.Ablation 3: DGEFA (P=%d) — reduction combine group@." p;
  let dg = Dgefa.program ~n:96 ~p in
  List.iter
    (fun (name, options) ->
      let c = Compiler.compile_exn ~options dg in
      let d = c.Compiler.decisions in
      List.iter
        (fun red ->
          Fmt.pr "  %-20s : combine group for %s = %d procs@." name
            red.Hpf_analysis.Reduction.var
            (Reduction_map.combine_group d red))
        d.Decisions.reductions)
    [
      ("default", Variants.no_reduction_alignment);
      ("aligned", Variants.selected);
    ];
  run_expansion ()

