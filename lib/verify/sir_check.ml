(** Lowered-IR fidelity audit.

    The compiler records the {!Phpf_ir.Sir.program} it lowered and
    optimized ([compiled.sir]); the runtime and the simulator consume
    that record.  This checker lowers the compiled decisions and
    schedule once more, replays the optimizer's witnesses
    ([opt_applied]) on that fresh lowering as a plain edit script — no
    dataflow — and diffs the recorded IR against the result, so a
    lowered artifact that was mutated, truncated, or produced by a buggy
    lowering is caught statically instead of surfacing as a validation
    mismatch at run time.  Each deletion witness is then checked
    against one {!Phpf_ir.Sir_dataflow} analysis of the recorded
    program (translation validation: the rewrite is checked against the
    evidence it recorded, not re-derived):

    - [E0610]: the recorded IR is missing a transfer op the decisions
      require — deleted with no witness, or with a witness that does not
      hold (an [rte] deletion whose data is not valid at every
      destination at its statement, a [dte] deletion whose payload a
      processor still reads), or with a witness naming an op the
      lowering does not have: some consumer will read a stale operand;
    - [E0611]: a computes predicate, storage decision, reduction plan or
      validation recipe disagrees with the decisions it claims to
      implement;
    - [W0605]: the recorded IR carries a transfer op the decisions do
      not require (wasteful, not unsound).

    A compiled record without a lowered program (e.g. constructed by
    hand) is not a finding: there is nothing to audit. *)

open Hpf_lang
open Phpf_core
module Sir = Phpf_ir.Sir
module Sir_opt = Phpf_ir.Sir_opt
module Sir_dataflow = Phpf_ir.Sir_dataflow

let xfer_tag = function
  | Sir.Elem_xfer _ -> "element"
  | Sir.Whole_xfer _ -> "whole-array"
  | Sir.Block_xfer _ -> "block"
  | Sir.Reduce_xfer -> "reduce"

let data_base = function
  | Sir.X_scalar { var; _ } -> var
  | Sir.X_elem { base; _ } -> base

(* Identity of a transfer op for the diff: where it fires, what it
   moves (the base and the subscripts of the reference it serves, so
   two shifts of one array at one statement stay apart), in which form,
   hoisted to which level.  Destination predicates and owner coordinates
   are compared separately (shape mismatches there are E0611, not a
   missing/extra op). *)
let op_key (sid : Ast.stmt_id) (op : Sir.comm_op) :
    Ast.stmt_id * string * string * Ast.expr list * int =
  let data = op.Sir.cm.Hpf_comm.Comm.data in
  let base =
    match op.Sir.xfer with
    | Sir.Elem_xfer { data; _ } | Sir.Block_xfer { data; _ } ->
        data_base data
    | Sir.Whole_xfer { base; _ } -> base
    | Sir.Reduce_xfer -> data.Hpf_analysis.Aref.base
  in
  ( sid,
    xfer_tag op.Sir.xfer,
    base,
    data.Hpf_analysis.Aref.subs,
    op.Sir.cm.Hpf_comm.Comm.placement_level )

let op_keys (p : Sir.program) =
  List.concat_map
    (fun (ops : Sir.stmt_ops) -> List.map (op_key ops.Sir.sid) ops.Sir.comms)
    (Sir.all_stmt_ops p)

(* Key sets, not multisets: a transfer the schedule lists twice still
   moves the value, so only a key entirely absent from one side is a
   finding. *)
let key_set keys =
  let tbl = Hashtbl.create 16 in
  List.iter (fun k -> Hashtbl.replace tbl k ()) keys;
  tbl

let pp_key ppf
    ((sid, tag, base, subs, level) :
      Ast.stmt_id * string * string * Ast.expr list * int) =
  Fmt.pf ppf "%s transfer of %a at s%d (placement level %d)" tag Pp.pp_expr
    (if subs = [] then Ast.Var base else Ast.Arr (base, subs))
    sid level

let pp_witness ppf = function
  | Sir.W_dead { uid } -> Fmt.pf ppf "dte deletion of op u%d" uid
  | Sir.W_redundant { uid; _ } -> Fmt.pf ppf "rte deletion of op u%d" uid
  | Sir.W_merge { members; _ } ->
      Fmt.pf ppf "merge of ops %a"
        Fmt.(list ~sep:(any ", ") (fmt "u%d"))
        members
  | Sir.W_hoist { uid; _ } -> Fmt.pf ppf "hoist of op u%d" uid
  | Sir.W_combine { sid; _ } -> Fmt.pf ppf "combine at s%d" sid

(* Does a deletion witness hold in the recorded program?  Checked on the
   program as it stands, after every later rewrite: an [rte] deletion
   needs its data valid at every destination where it fired (whatever
   fact provides it now — the cover it named may have been deleted
   since), a [dte] deletion needs its payload read by no processor
   after its statement.  [ops] is that statement as the fresh lowering
   had it before the edit. *)
let witness_holds (s : Sir_dataflow.summary) (w : Sir.witness)
    (ops : Sir.stmt_ops) (op : Sir.comm_op) : bool =
  match Sir_dataflow.instance_node s.Sir_dataflow.cfg ops.Sir.sid with
  | None -> false
  | Some i -> (
      match w with
      | Sir.W_dead _ -> (
          match Sir_dataflow.op_base op with
          | None -> false
          | Some b -> not (Sir_dataflow.read_after s i b))
      | Sir.W_redundant _ -> (
          match Sir_dataflow.fact_of_op ~mirror:ops.Sir.mirror op with
          | None -> false
          | Some f ->
              Sir_dataflow.covered_at s i ~key:f.Sir_dataflow.key
                ~need:f.Sir_dataflow.dests)
      | Sir.W_merge _ | Sir.W_hoist _ | Sir.W_combine _ -> true)

let check ?(flow = Sir_dataflow.summarize) (c : Compiler.compiled) :
    Diag.t list =
  match c.Compiler.sir with
  | None -> []
  | Some recorded ->
      let fresh =
        Lower_spmd.lower ~prog:c.Compiler.prog ~decisions:c.Compiler.decisions
          ~comms:c.Compiler.comms ()
      in
      let out = ref [] in
      let emit d = out := d :: !out in
      (* --- the witnesses as an edit script on the fresh lowering ---- *)
      let editor = Sir_opt.editor fresh and deletions = ref [] in
      List.iter
        (fun (w : Sir.witness) ->
          match Sir_opt.edit editor w with
          | None ->
              emit
                (Diag.errorf ~code:Codes.e_sir_missing
                   "optimizer witness %a names an op, statement or step \
                    the lowering does not have: the recorded rewrites do \
                    not apply to the decisions"
                   pp_witness w)
          | Some before -> (
              match w with
              | Sir.W_dead { uid } | Sir.W_redundant { uid; _ } ->
                  let op =
                    List.find
                      (fun (o : Sir.comm_op) -> o.Sir.uid = uid)
                      before.Sir.comms
                  in
                  deletions := (w, before, op) :: !deletions
              | Sir.W_merge _ | Sir.W_hoist _ | Sir.W_combine _ -> ()))
        recorded.Sir.opt_applied;
      (* --- transfer-op set diff ------------------------------------ *)
      let rec_keys = key_set (op_keys recorded) in
      let fresh_keys = key_set (op_keys fresh) in
      Hashtbl.iter
        (fun k () ->
          if not (Hashtbl.mem rec_keys k) then
            emit
              (Diag.errorf ~code:Codes.e_sir_missing
                 "lowered program is missing a required %a: a consumer \
                  will read a stale operand"
                 pp_key k))
        fresh_keys;
      Hashtbl.iter
        (fun k () ->
          if not (Hashtbl.mem fresh_keys k) then
            emit
              (Diag.warningf ~code:Codes.w_sir_extra
                 "lowered program carries a %a the decisions do not \
                  require"
                 pp_key k))
        rec_keys;
      (* --- guards, storage, reductions, validation ----------------- *)
      let guard_mismatch =
        List.exists
          (fun (f : Sir.stmt_ops) ->
            match (Sir.stmt_ops recorded f.Sir.sid, f.Sir.exec) with
            | None, _ -> false (* already reported as missing ops *)
            | ( Some { Sir.exec = Sir.Guarded_assign r; _ },
                Sir.Guarded_assign g ) ->
                r.computes <> g.computes
            | Some { Sir.exec = re; _ }, fe -> re <> fe)
          (Sir.all_stmt_ops fresh)
      in
      if guard_mismatch then
        emit
          (Diag.error ~code:Codes.e_sir_guard
             "lowered computes predicates disagree with the recorded \
              partitioning decisions: some processor will compute (or \
              skip) a statement instance it must not");
      if recorded.Sir.allocs <> fresh.Sir.allocs then
        emit
          (Diag.error ~code:Codes.e_sir_guard
             "lowered storage decisions (allocs) disagree with the \
              recorded scalar/array mappings");
      if
        recorded.Sir.reductions <> fresh.Sir.reductions
        || recorded.Sir.validate_plan <> fresh.Sir.validate_plan
      then
        emit
          (Diag.error ~code:Codes.e_sir_guard
             "lowered reduction plan or validation recipe disagrees with \
              the recorded decisions");
      (* --- the deletion witnesses against the recorded dataflow ---- *)
      if !deletions <> [] then begin
        let s = flow recorded in
        List.iter
          (fun (w, (ops : Sir.stmt_ops), op) ->
            if not (witness_holds s w ops op) then
              emit
                (Diag.errorf ~code:Codes.e_sir_missing
                   "lowered program is missing a required %a: its %a \
                    does not hold (%s), so a consumer will read a stale \
                    operand"
                   pp_key (op_key ops.Sir.sid op) pp_witness w
                   (match w with
                   | Sir.W_dead _ -> "a processor still reads the payload"
                   | _ ->
                       "the data is not valid at every destination \
                        there")))
          (List.rev !deletions)
      end;
      List.rev !out
