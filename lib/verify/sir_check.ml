(** Lowered-IR fidelity audit.

    The compiler records the {!Phpf_ir.Sir.program} it lowered
    ([compiled.sir]); the runtime and the simulator consume that record.
    This checker re-lowers the compiled decisions and schedule from
    scratch and diffs the recorded IR against the fresh one, so a
    lowered artifact that was mutated, truncated, or produced by a buggy
    lowering is caught statically instead of surfacing as a validation
    mismatch at run time:

    - [E0610]: the recorded IR is missing a transfer op the decisions
      require — some consumer will read a stale operand;
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

let xfer_tag = function
  | Sir.Elem_xfer _ -> "element"
  | Sir.Whole_xfer _ -> "whole-array"
  | Sir.Block_xfer _ -> "block"
  | Sir.Reduce_xfer -> "reduce"

let data_base = function
  | Sir.X_scalar { var; _ } -> var
  | Sir.X_elem { base; _ } -> base

(* Identity of a transfer op for the diff: where it fires, what it
   moves, in which form, hoisted to which level.  Destination predicates
   and owner coordinates are compared separately (shape mismatches there
   are E0611, not a missing/extra op). *)
let op_key (sid : Ast.stmt_id) (op : Sir.comm_op) :
    Ast.stmt_id * string * string * int =
  let base =
    match op.Sir.xfer with
    | Sir.Elem_xfer { data; _ } | Sir.Block_xfer { data; _ } ->
        data_base data
    | Sir.Whole_xfer { base; _ } -> base
    | Sir.Reduce_xfer ->
        op.Sir.cm.Hpf_comm.Comm.data.Hpf_analysis.Aref.base
  in
  (sid, xfer_tag op.Sir.xfer, base, op.Sir.cm.Hpf_comm.Comm.placement_level)

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

let pp_key ppf ((sid, tag, base, level) : Ast.stmt_id * string * string * int)
    =
  Fmt.pf ppf "%s transfer of %s at s%d (placement level %d)" tag base sid
    level

let check (c : Compiler.compiled) : Diag.t list =
  match c.Compiler.sir with
  | None -> []
  | Some recorded ->
      let fresh =
        Lower_spmd.lower ~prog:c.Compiler.prog ~decisions:c.Compiler.decisions
          ~comms:c.Compiler.comms ()
      in
      (* an optimized recording is compared against an identically
         optimized fresh lowering: replay the recorded pass recipe, so
         a certified deletion is not misread as a missing transfer *)
      Phpf_ir.Sir_opt.replay recorded.Sir.opt_applied fresh;
      let out = ref [] in
      let emit d = out := d :: !out in
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
      List.rev !out
