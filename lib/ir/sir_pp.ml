(** Pretty-printer for the lowered SPMD IR (the [--dump-after
    lower-spmd] view). *)

open Hpf_lang

let pp_coord ppf = function
  | Sir.C_all -> Fmt.string ppf "*"
  | Sir.C_fixed c -> Fmt.pf ppf "@%d" c
  | Sir.C_affine { fmt; nprocs; stride; offset; dim_lo; sub } ->
      let k = offset - dim_lo in
      Fmt.pf ppf "%a/%d(" Hpf_mapping.Dist.pp fmt nprocs;
      if stride <> 1 then Fmt.pf ppf "%d*" stride;
      Fmt.pf ppf "%a" Pp.pp_expr sub;
      if k <> 0 then Fmt.pf ppf "%+d" k;
      Fmt.string ppf ")"

let pp_place ppf (p : Sir.place) =
  Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any ", ") pp_coord) p

let pp_pred ppf = function
  | Sir.P_all -> Fmt.string ppf "all"
  | Sir.P_place p -> pp_place ppf p
  | Sir.P_union ps ->
      Fmt.pf ppf "union(%a)" Fmt.(list ~sep:(any " | ") pp_place) ps

let pp_ecoord ppf = function
  | Sir.E_all -> Fmt.string ppf "*"
  | Sir.E_fixed c -> Fmt.pf ppf "@%d" c
  | Sir.E_dim { array_dim; fmt; nprocs; stride; offset; dim_lo } ->
      let k = offset - dim_lo in
      Fmt.pf ppf "%a/%d(" Hpf_mapping.Dist.pp fmt nprocs;
      if stride <> 1 then Fmt.pf ppf "%d*" stride;
      Fmt.pf ppf "$%d" array_dim;
      if k <> 0 then Fmt.pf ppf "%+d" k;
      Fmt.string ppf ")"

let pp_eplace ppf (p : Sir.eplace) =
  Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any ", ") pp_ecoord) p

let pp_xdata ppf = function
  | Sir.X_scalar { var; owner } -> Fmt.pf ppf "%s from %a" var pp_place owner
  | Sir.X_elem { base; subs; owner } ->
      Fmt.pf ppf "%s(%a) from %a" base
        Fmt.(list ~sep:(any ", ") Pp.pp_expr)
        subs pp_place owner

let pp_dests ppf = function
  | Sir.D_all -> Fmt.string ppf "all"
  | Sir.D_pred p -> Fmt.pf ppf "exec %a" pp_pred p

let pp_xfer ppf = function
  | Sir.Elem_xfer { data; dests } ->
      Fmt.pf ppf "send %a to %a" pp_xdata data pp_dests dests
  | Sir.Whole_xfer { base; owners; dests } ->
      Fmt.pf ppf "send whole %s from %a to %a" base pp_eplace owners pp_dests
        dests
  | Sir.Block_xfer { data; dests; crossed; prefix_vars } ->
      Fmt.pf ppf "block %a to %a over {%a}" pp_xdata data pp_dests dests
        Fmt.(
          list ~sep:(any ", ") (fun ppf (l : Sir.loop_desc) ->
              Fmt.pf ppf "%s=%a:%a:%a" l.index Pp.pp_expr l.lo Pp.pp_expr
                l.hi Pp.pp_expr l.step))
        crossed;
      if prefix_vars <> [] then
        Fmt.pf ppf " once per (%a)"
          Fmt.(list ~sep:(any ", ") string)
          prefix_vars
  | Sir.Reduce_xfer -> Fmt.string ppf "reduce (combined lazily)"

let pp_comm_op ppf (op : Sir.comm_op) =
  Fmt.pf ppf "c%d %a %a: %a" op.pos Hpf_comm.Comm.pp_kind
    op.cm.Hpf_comm.Comm.kind Hpf_analysis.Aref.pp op.cm.Hpf_comm.Comm.data
    pp_xfer op.xfer

let pp_mapping ppf = function
  | Sir.A_replicated -> Fmt.string ppf "replicated"
  | Sir.A_unaligned -> Fmt.string ppf "private (no alignment)"
  | Sir.A_aligned { target; level } ->
      Fmt.pf ppf "aligned with %a (valid at level %d)"
        Hpf_analysis.Aref.pp target level
  | Sir.A_reduction { target; repl_dims } ->
      Fmt.pf ppf "reduction-mapped to %a, replicated on dims {%a}"
        Hpf_analysis.Aref.pp target
        Fmt.(list ~sep:(any ", ") int)
        repl_dims
  | Sir.A_array { target = Some t; _ } ->
      Fmt.pf ppf "privatized, aligned with %a" Hpf_analysis.Aref.pp t
  | Sir.A_array { target = None; _ } -> Fmt.string ppf "privatized"
  | Sir.A_array_partial { target; priv_dims; _ } ->
      Fmt.pf ppf "partially privatized on dims {%a}, aligned with %a"
        Fmt.(list ~sep:(any ", ") int)
        priv_dims Hpf_analysis.Aref.pp target

let pp_red ppf (r : Sir.reduce) =
  Fmt.pf ppf "%s: %s over grid dims {%a} in %d line(s)" r.rvar
    (match r.rop with
    | Hpf_analysis.Reduction.Rsum -> "sum"
    | Hpf_analysis.Reduction.Rprod -> "prod"
    | Hpf_analysis.Reduction.Rmax -> "max"
    | Hpf_analysis.Reduction.Rmin -> "min")
    Fmt.(list ~sep:(any ", ") int)
    r.repl_dims (List.length r.lines);
  if r.loc_vars <> [] then
    Fmt.pf ppf " (loc: %a)" Fmt.(list ~sep:(any ", ") string) r.loc_vars

let pp_vcheck ppf = function
  | Sir.V_skip a -> Fmt.pf ppf "%s: skip (privatized)" a
  | Sir.V_owned (a, e) -> Fmt.pf ppf "%s: owners %a" a pp_eplace e
  | Sir.V_line (a, e) -> Fmt.pf ppf "%s: line %a" a pp_eplace e

(* One line per statement, indented by nesting, followed by its lowered
   ops (reduction steps, communications, the guarded compute). *)
let pp_stmts ppf (p : Sir.program) =
  let rec stmt indent (s : Ast.stmt) =
    let pad = String.make indent ' ' in
    let ops = Sir.stmt_ops p s.Ast.sid in
    let head =
      match s.Ast.node with
      | Ast.Assign (lhs, rhs) ->
          Fmt.str "%a = %a" Pp.pp_lhs lhs Pp.pp_expr rhs
      | Ast.Do d ->
          Fmt.str "do %s = %a, %a" d.Ast.index Pp.pp_expr d.Ast.lo
            Pp.pp_expr d.Ast.hi
      | Ast.If (c, _, _) -> Fmt.str "if (%a)" Pp.pp_expr c
      | Ast.Exit _ -> "exit"
      | Ast.Cycle _ -> "cycle"
    in
    Fmt.pf ppf "%ss%d: %s@." pad s.Ast.sid head;
    (match ops with
    | None -> ()
    | Some o ->
        List.iter
          (fun (step : Sir.red_step) ->
            match step with
            | Sir.R_mark v -> Fmt.pf ppf "%s  | mark %s dirty@." pad v
            | Sir.R_combine i ->
                Fmt.pf ppf "%s  | combine %s@." pad
                  p.Sir.reductions.(i).Sir.rvar)
          o.Sir.red_steps;
        List.iter
          (fun op -> Fmt.pf ppf "%s  | %a@." pad pp_comm_op op)
          o.Sir.comms;
        (match o.Sir.exec with
        | Sir.Control { computes } ->
            Fmt.pf ppf "%s  | evaluate where %a@." pad pp_pred computes
        | Sir.Guarded_assign { computes; _ } ->
            Fmt.pf ppf "%s  | compute where %a@." pad pp_pred computes
        | Sir.Loop_head { index; lo } ->
            Fmt.pf ppf "%s  | mirror %s := %a on all@." pad index Pp.pp_expr
              lo));
    match s.Ast.node with
    | Ast.Do d -> List.iter (stmt (indent + 2)) d.Ast.body
    | Ast.If (_, t, e) ->
        List.iter (stmt (indent + 2)) t;
        if e <> [] then begin
          Fmt.pf ppf "%selse@." pad;
          List.iter (stmt (indent + 2)) e
        end
    | _ -> ()
  in
  List.iter (stmt 0) p.Sir.source.Ast.body

let pp_rsource ppf = function
  | Sir.R_replica { holders } ->
      Fmt.pf ppf "refetch from replica %a" pp_pred holders
  | Sir.R_reexec { producers; region; guard } ->
      Fmt.pf ppf "reexec region s%d (producers %a) where %a" region
        Fmt.(list ~sep:(any ", ") (fun ppf s -> pf ppf "s%d" s))
        producers pp_pred guard
  | Sir.R_checkpoint -> Fmt.string ppf "checkpoint restore"

let pp_rentry ppf (e : Sir.rentry) =
  (match e.Sir.from_region with
  | None -> Fmt.pf ppf "%s from init: " e.Sir.datum
  | Some sid -> Fmt.pf ppf "%s after s%d: " e.Sir.datum sid);
  pp_rsource ppf e.Sir.source

(** The [--dump-after recovery-plan] view: one line per plan entry, per
    datum in declaration order, latest applicable entry in force. *)
let pp_plan ppf (p : Sir.program) =
  match p.Sir.recovery with
  | None -> Fmt.pf ppf "no recovery plan (pass not run)@."
  | Some plan ->
      Fmt.pf ppf "recovery plan for %s (P=%d, checkpoints %s):@."
        p.Sir.source.Ast.pname p.Sir.nprocs
        (if plan.Sir.checkpoints_needed then "needed" else "not needed");
      List.iter
        (fun e -> Fmt.pf ppf "  %a@." pp_rentry e)
        plan.Sir.entries

let pp ppf (p : Sir.program) =
  Fmt.pf ppf "spmd program %s on grid %a (P=%d)@." p.Sir.source.Ast.pname
    Hpf_mapping.Grid.pp p.Sir.grid p.Sir.nprocs;
  if p.Sir.allocs <> [] then begin
    Fmt.pf ppf "allocs:@.";
    List.iter
      (fun (a : Sir.alloc) ->
        Fmt.pf ppf "  alloc_priv %s : %a@." a.Sir.name pp_mapping
          a.Sir.mapping)
      p.Sir.allocs
  end;
  if Array.length p.Sir.reductions > 0 then begin
    Fmt.pf ppf "reductions:@.";
    Array.iter (fun r -> Fmt.pf ppf "  %a@." pp_red r) p.Sir.reductions
  end;
  pp_stmts ppf p;
  Fmt.pf ppf "validate:@.";
  List.iter (fun v -> Fmt.pf ppf "  %a@." pp_vcheck v) p.Sir.validate_plan

let to_string (p : Sir.program) : string = Fmt.str "%a" pp p
