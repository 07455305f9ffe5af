(* Workload [compile]: one client runs what [phpfc lint] does for one
   (program, options) point — parse, compile, verify — over the shipped
   examples, the six bench kernels and composed larger programs, each
   under the three compiler versions serve uses. *)

open Hpf_lang
open Phpf_core
module Verifier = Phpf_verify.Verifier

type point = {
  cls : string;
  text : string;
  opts : Decisions.options;
}

(* Composed programs and their ops per cycle.  Tomcatv's time-step
   body repeated up to 8 times (~230 lines) is where sir-opt.rte,
   scalar-map and verify-sir grow superlinearly; two other kernels'
   phases repeated 8 times add mid-size programs of another shape. *)
let composed =
  [ ("tomcatv", 2, 3); ("tomcatv", 4, 3); ("tomcatv", 8, 2); ("appsp_2d", 8, 3); ("dgefa", 8, 3) ]

(* Ops per cycle of each shipped example and bench kernel.  With the
   composed weights above, p50 falls among the small programs (2-3 ms),
   p90 among tomcatv_x2 and tomcatv_x8 --no-opt (~58 ms) and p99 inside
   tomcatv_x8 (~0.8 s); README.md records the placement. *)
let base_weight = 2

let setup () : point array =
  let programs =
    List.map (fun (n, text) -> (n, text, base_weight)) (Corpus.examples ())
    @ List.map (fun (n, mk) -> (n ^ "@4", Pp.program_to_string (mk ~p:4), base_weight)) Corpus.kernels
    @ List.map
        (fun (n, k, w) ->
          ( Printf.sprintf "%s_x%d" n k,
            Pp.program_to_string (Corpus.compose k ((List.assoc n Corpus.kernels) ~p:4)),
            w ))
        composed
  in
  List.concat_map
    (fun (name, text, w) ->
      List.concat_map
        (fun (oname, opts) -> List.init w (fun _ -> { cls = name ^ "/" ^ oname; text; opts }))
        Phpf_serve.Serve.workload_option_sets)
    programs
  |> Array.of_list

let id_parse = Spans.intern "lang.parse"

let pass_ids names prefix =
  let t = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace t n (Spans.intern (prefix ^ n))) names;
  t

let compile_ids = pass_ids Compiler.pass_names "pass."
let verify_ids = pass_ids Verifier.pass_names "verify."

(* Counts the compile trace records, summed over one cycle. *)
let count_trace (c : Compiler.compiled) (tr : Phpf_driver.Pipeline.trace) =
  let stat pass key =
    match Phpf_driver.Pipeline.stats_of tr pass with
    | Some st -> Option.value ~default:0 (List.assoc_opt key st)
    | None -> 0
  in
  Runner.count "program.stmts" (float_of_int (stat "sema" "program.stmts"));
  Runner.count "ir.ops_lowered"
    (float_of_int
       (List.fold_left
          (fun acc k -> acc + stat "lower-spmd" ("sir." ^ k))
          0
          [ "assigns"; "elem-xfers"; "whole-xfers"; "block-xfers"; "reduce-ops"; "allocs" ]));
  (match c.Compiler.sir with
  | Some sir ->
      Runner.count "ir.ops_final"
        (float_of_int (Phpf_ir.Sir.total_ops (Phpf_ir.Sir.op_counts sir)))
  | None -> ());
  Runner.count "opt.rewrites"
    (float_of_int
       (List.fold_left
          (fun acc p -> acc + stat ("sir-opt." ^ p) "rewrites")
          0 Phpf_ir.Sir_opt.pass_names))

(* The gate: the program compiles and lints without an error. *)
let lint_clean = function
  | Ok (findings, _) -> not (Verifier.has_errors findings)
  | Error _ -> false

let run_point (p : point) ~(root : int) : bool =
  if root < 0 then
    match Parser.parse_string_result p.text with
    | Error _ -> false
    | Ok prog -> (
        match Compiler.compile_traced ~options:p.opts prog with
        | Error _ -> false
        | Ok (c, _) -> lint_clean (Verifier.verify ~opts:p.opts c))
  else
    let cur = Spans.cursor root in
    match Spans.child cur id_parse (fun () -> Parser.parse_string_result p.text) with
    | Error _ -> false
    | Ok prog -> (
        Spans.reset cur;
        match
          Compiler.compile_traced ~options:p.opts
            ~after:(fun name _ -> Spans.mark cur (Hashtbl.find compile_ids name))
            prog
        with
        | Error _ -> false
        | Ok (c, tr) ->
            count_trace c tr;
            Spans.reset cur;
            lint_clean
              (Verifier.verify ~opts:p.opts
                 ~after:(fun name _ -> Spans.mark cur (Hashtbl.find verify_ids name))
                 c))

let ops (pts : point array) : Runner.op array =
  Array.map (fun p -> { Runner.cls = p.cls; run = run_point p }) pts

(* Simulated run time (ms) of the code this workload generates: every
   distinct program compiled with default options, priced by the trace
   simulator on the lowered program, as [phpfc simulate] does. *)
let gen_times (pts : point array) : float array =
  let seen = Hashtbl.create 32 in
  Array.to_list pts
  |> List.filter_map (fun p ->
         if p.opts <> Decisions.default_options || Hashtbl.mem seen p.text then None
         else begin
           Hashtbl.add seen p.text ();
           let c = Compiler.compile_exn (Parser.parse_string p.text) in
           let r, _ =
             Hpf_spmd.Trace_sim.run ~init:(Hpf_spmd.Init.init c.Compiler.prog)
               ?sir:c.Compiler.sir c
           in
           Some (r.Hpf_spmd.Trace_sim.time *. 1e3)
         end)
  |> Array.of_list
