(** The phpf-style compilation pipeline, expressed as a pass list over a
    shared compilation context and executed by the pass-manager
    ({!Phpf_driver.Pipeline}).

    The registered passes, in order:

    + [sema] — semantic checking and statement-id normalization
      ({!Hpf_lang.Sema});
    + [induction] — induction-variable recognition and closed-form
      rewriting ({!Hpf_analysis.Induction});
    + [decisions] — privatizability information, layouts, reduction
      records and the dependence forms ({!Decisions.create}), over the
      SSA [induction] built when it left the program unchanged;
    + [ctrl-priv] — control-flow privatization ({!Ctrl_priv});
    + [reduction-map] — reduction-accumulator mapping ({!Reduction_map});
    + [array-priv] — array privatization, full and partial
      ({!Array_priv});
    + [scalar-map] — the scalar mapping pass ({!Mapping_alg}, paper
      Fig. 3);
    + [comm-analysis] — communication analysis with message
      vectorization ({!Hpf_comm.Comm_analysis});
    + [lower-spmd] — lowering to the explicit SPMD IR consumed by the
      executor, timing simulator and verifier ({!Lower_spmd});
    + [recovery-plan] — compile-time crash-recovery classification over
      the lowered IR ({!Phpf_ir.Sir_recovery}).

    [options] gates individual passes (their enabled-predicates) to
    reproduce the paper's less-optimized compiler versions;
    [grid_override] replaces the declared processor arrangement to sweep
    machine sizes.  Each pass records statistics counters (defs
    privatized, arrays partially privatized, comms vectorized vs.
    inner-loop residual, ...) into the pipeline trace. *)

open Hpf_lang
open Hpf_analysis
open Hpf_comm
module Pass = Phpf_driver.Pass
module Pipeline = Phpf_driver.Pipeline
module Stats = Phpf_driver.Stats

(** Immutable accumulator threaded through the passes: each pass
    receives the context its predecessor returned and produces a new
    record ([{ ctx with ... }]), so a compile in flight owns every value
    it touches and many compiles can run concurrently on separate
    domains.  (Declared before {!compiled} so that unannotated
    [c.Compiler.prog]-style accesses in client code resolve to the
    {!compiled} record's fields.) *)
type context = {
  prog : Ast.program;
  ivs : Induction.iv list;
  ssa : Ssa.t option;
      (** the SSA of [prog] when induction left it unchanged; the
          decisions pass reuses it *)
  decisions : Decisions.t option;  (** set by the decisions pass *)
  comms : Comm.t list;
  sir : Phpf_ir.Sir.program option;  (** set by lower-spmd *)
  grid_override : int list option;
  options : Decisions.options;
}

type compiled = {
  prog : Ast.program;  (** after semantic checks and IV rewriting *)
  decisions : Decisions.t;
  comms : Comm.t list;
  ivs : Induction.iv list;
  sir : Phpf_ir.Sir.program option;
      (** the lowered SPMD program ([lower-spmd]); consumed by the
          executor, the timing simulator and the verifier *)
}

let decisions_exn (ctx : context) : Decisions.t =
  match ctx.decisions with
  | Some d -> d
  | None -> invalid_arg "pipeline: pass ran before the decisions pass"

(* ------------------------------------------------------------------ *)
(* Statistics helpers                                                  *)
(* ------------------------------------------------------------------ *)

let count_stmts (p : Ast.program) =
  let n = ref 0 in
  Ast.iter_program (fun _ -> incr n) p;
  !n

let count_scalar (d : Decisions.t) pred =
  List.length
    (List.filter (fun (_, m) -> pred m) (Decisions.scalar_mappings d))

let count_arrays (d : Decisions.t) pred =
  List.length
    (List.filter (fun (_, m) -> pred m) (Decisions.array_mappings d))

(* ------------------------------------------------------------------ *)
(* The registered pass list                                            *)
(* ------------------------------------------------------------------ *)

let passes : (Decisions.options, context) Pass.t list =
  [
    Pass.make "sema" ~descr:"semantic checks and statement renumbering"
      (fun (ctx : context) st ->
        match Sema.check_result ctx.prog with
        | Error ds -> raise (Diag.Fatal ds)
        | Ok p ->
            Stats.set st "program.stmts" (count_stmts p);
            { ctx with prog = p });
    Pass.make "induction"
      ~descr:"induction-variable recognition and closed-form rewriting"
      (fun (ctx : context) st ->
        let { Induction.prog; ivs; ssa } = Induction.run ctx.prog in
        Stats.set st "ivs.rewritten" (List.length ivs);
        { ctx with prog; ivs; ssa });
    Pass.make "decisions"
      ~descr:"SSA, privatizability, layouts and reduction records"
      (fun (ctx : context) st ->
        let d =
          Decisions.create ?grid_override:ctx.grid_override
            ~options:ctx.options ?ssa:ctx.ssa ctx.prog
        in
        Stats.set st "grid.procs"
          (Hpf_mapping.Grid.size d.Decisions.env.Hpf_mapping.Layout.grid);
        Stats.set st "reductions.recognized"
          (List.length d.Decisions.reductions);
        { ctx with decisions = Some d });
    Pass.make "ctrl-priv"
      ~enabled:(fun (o : Decisions.options) -> o.Decisions.privatize_control)
      ~descr:"privatized execution of control flow (paper section 4)"
      (fun (ctx : context) st ->
        let d = decisions_exn ctx in
        Ctrl_priv.run d;
        Stats.set st "ctrl.privatized"
          (List.length
             (List.filter (fun (_, priv) -> priv) (Decisions.ctrl_entries d)));
        ctx);
    Pass.make "reduction-map"
      ~enabled:(fun (o : Decisions.options) -> o.Decisions.reduction_alignment)
      ~descr:"reduction-accumulator mapping (paper section 2.3)"
      (fun (ctx : context) st ->
        let d = decisions_exn ctx in
        Reduction_map.run d;
        Stats.set st "reductions.mapped"
          (count_scalar d (function
            | Decisions.Priv_reduction _ -> true
            | _ -> false));
        ctx);
    Pass.make "array-priv"
      ~enabled:(fun (o : Decisions.options) -> o.Decisions.privatize_arrays)
      ~descr:"array privatization, full and partial (paper section 3)"
      (fun (ctx : context) st ->
        let d = decisions_exn ctx in
        Array_priv.run d;
        Stats.set st "arrays.privatized"
          (count_arrays d (function
            | Decisions.Arr_priv _ -> true
            | Decisions.Arr_partial_priv _ -> false));
        Stats.set st "arrays.partial"
          (count_arrays d (function
            | Decisions.Arr_partial_priv _ -> true
            | Decisions.Arr_priv _ -> false));
        ctx);
    Pass.make "scalar-map"
      ~enabled:(fun (o : Decisions.options) -> o.Decisions.privatize_scalars)
      ~descr:"scalar mapping: DetermineMapping (paper Fig. 3)"
      (fun (ctx : context) st ->
        let d = decisions_exn ctx in
        Mapping_alg.run d;
        Stats.set st "defs.aligned"
          (count_scalar d (function
            | Decisions.Priv_aligned _ -> true
            | _ -> false));
        Stats.set st "defs.no-align"
          (count_scalar d (function
            | Decisions.Priv_no_align -> true
            | _ -> false));
        ctx);
    Pass.make "comm-analysis"
      ~descr:"communication analysis with message vectorization"
      (fun (ctx : context) st ->
        let d = decisions_exn ctx in
        let comms =
          Comm_analysis.analyze d.Decisions.deps (Consumer.oracle d)
            ~reductions:d.Decisions.reductions
            ~red_group:(Reduction_map.combine_group d)
            ~elide_unwritten:ctx.options.Decisions.optimize ()
        in
        Stats.set st "comms.total" (List.length comms);
        Stats.set st "comms.vectorized"
          (List.length (List.filter Comm.vectorized comms));
        Stats.set st "comms.inner-loop"
          (List.length (List.filter Comm.in_innermost_loop comms));
        { ctx with comms });
    Pass.make "lower-spmd"
      ~descr:"lowering to the explicit SPMD IR (guards, transfers, allocs)"
      (fun (ctx : context) st ->
        let d = decisions_exn ctx in
        let sir =
          Lower_spmd.lower ~strict:true ~prog:ctx.prog
            ~decisions:d ~comms:ctx.comms ()
        in
        let k = Phpf_ir.Sir.op_counts sir in
        Stats.set st "sir.assigns" k.Phpf_ir.Sir.assigns;
        Stats.set st "sir.elem-xfers" k.Phpf_ir.Sir.elem_xfers;
        Stats.set st "sir.whole-xfers" k.Phpf_ir.Sir.whole_xfers;
        Stats.set st "sir.block-xfers" k.Phpf_ir.Sir.block_xfers;
        Stats.set st "sir.reduce-ops" k.Phpf_ir.Sir.reduce_ops;
        Stats.set st "sir.allocs" k.Phpf_ir.Sir.alloc_ops;
        { ctx with sir = Some sir });
  ]
  @ List.map
      (fun pname ->
        Pass.make ("sir-opt." ^ pname)
          ~enabled:(fun (o : Decisions.options) ->
            o.Decisions.optimize
            &&
            match o.Decisions.opt_passes with
            | None -> true
            | Some ps -> List.mem pname ps)
          ~descr:
            (Option.value ~default:"Sir optimizer pass"
               (Phpf_ir.Sir_opt.descr_of pname))
          (fun (ctx : context) st ->
            (match ctx.sir with
            | None -> ()
            | Some sir ->
                let before = Phpf_ir.Sir.op_counts sir in
                let rewrites =
                  Phpf_ir.Sir_opt.apply
                    ~nest:(decisions_exn ctx).Decisions.nest pname sir
                in
                let after = Phpf_ir.Sir.op_counts sir in
                Stats.set st "rewrites" rewrites;
                (* census delta: op population change this pass *)
                Stats.set st "delta.elem-xfers"
                  (after.Phpf_ir.Sir.elem_xfers
                  - before.Phpf_ir.Sir.elem_xfers);
                Stats.set st "delta.whole-xfers"
                  (after.Phpf_ir.Sir.whole_xfers
                  - before.Phpf_ir.Sir.whole_xfers);
                Stats.set st "delta.block-xfers"
                  (after.Phpf_ir.Sir.block_xfers
                  - before.Phpf_ir.Sir.block_xfers);
                Stats.set st "delta.reduce-ops"
                  (after.Phpf_ir.Sir.reduce_ops
                  - before.Phpf_ir.Sir.reduce_ops));
            ctx))
      Phpf_ir.Sir_opt.pass_names
  @ [
    Pass.make "recovery-plan"
      ~descr:"compile-time crash-recovery plan over the lowered IR"
      (fun (ctx : context) st ->
        (match ctx.sir with
        | None -> ()
        | Some sir ->
            let plan = Phpf_ir.Sir_recovery.plan sir in
            sir.Phpf_ir.Sir.recovery <- Some plan;
            let count f = List.length (List.filter f plan.Phpf_ir.Sir.entries) in
            Stats.set st "plan.replica"
              (count (fun (e : Phpf_ir.Sir.rentry) ->
                   match e.Phpf_ir.Sir.source with
                   | Phpf_ir.Sir.R_replica _ -> true
                   | _ -> false));
            Stats.set st "plan.reexec"
              (count (fun (e : Phpf_ir.Sir.rentry) ->
                   match e.Phpf_ir.Sir.source with
                   | Phpf_ir.Sir.R_reexec _ -> true
                   | _ -> false));
            Stats.set st "plan.checkpoint"
              (count (fun (e : Phpf_ir.Sir.rentry) ->
                   e.Phpf_ir.Sir.source = Phpf_ir.Sir.R_checkpoint));
            Stats.set st "plan.checkpoints-needed"
              (if plan.Phpf_ir.Sir.checkpoints_needed then 1 else 0));
        ctx);
  ]

(** Names of the registered passes, in order. *)
let pass_names = Pipeline.names passes

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let compile_traced ?grid_override ?(options = Decisions.default_options)
    ?after (input : Ast.program) :
    (compiled * Pipeline.trace, Diag.t list) result =
  let ctx =
    {
      prog = input;
      ivs = [];
      ssa = None;
      decisions = None;
      comms = [];
      sir = None;
      grid_override;
      options;
    }
  in
  match Pipeline.run ~opts:options ?after passes ctx with
  | Error _ as e -> e
  | Ok (ctx, trace) ->
      let d = decisions_exn ctx in
      (* seal the decision tables: the compiled value is now a frozen,
         shareable artifact — post-compile readers on any domain see the
         same decisions, and accidental late mutation raises *)
      Decisions.freeze d;
      Ok
        ( {
            prog = ctx.prog;
            decisions = d;
            comms = ctx.comms;
            ivs = ctx.ivs;
            sir = ctx.sir;
          },
          trace )

let compile ?grid_override ?options (input : Ast.program) :
    (compiled, Diag.t list) result =
  Result.map fst (compile_traced ?grid_override ?options input)

let compile_exn ?grid_override ?options (input : Ast.program) : compiled =
  match compile ?grid_override ?options input with
  | Ok c -> c
  | Error ds -> raise (Diag.Fatal ds)

let sir_exn (c : compiled) : Phpf_ir.Sir.program =
  match c.sir with
  | Some sir -> sir
  | None -> invalid_arg "Compiler.sir_exn: no lowered program recorded"

(** Estimated communication time under a machine model (the mapping
    algorithm's view of the program; the timing simulator in
    {!Hpf_spmd.Trace_sim} gives the measured view). *)
let estimated_comm_cost ?(model = Cost_model.sp2) (c : compiled) : float =
  let nprocs =
    Hpf_mapping.Grid.size c.decisions.Decisions.env.Hpf_mapping.Layout.grid
  in
  Comm.total_cost model ~nprocs c.comms

(** Communications that could not be vectorized out of their innermost
    loop. *)
let inner_loop_comms (c : compiled) : Comm.t list =
  List.filter Comm.in_innermost_loop c.comms
