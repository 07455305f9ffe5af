(** Communication-completeness checker.

    The required schedule is re-derived from the mapping decisions
    through the paper's consumer rules — the verifier's only
    re-derivation of communication ({!Vutil.comm_diff}, computed by the
    [verify-comm] pass) — and diffed against what the compiler actually
    scheduled.  An unmet requirement at an owner-guarded statement is a
    stale read ([E0603]); the same defect at a statement executed by
    {e every} processor is divergent replication ([E0608]): each
    replicated copy computes from its own, possibly stale, operand.  A
    descriptor moving the right data in the wrong form or at the wrong
    loop level is [E0604]: placed deeper than the vectorization level it
    repeats (or misses) transfers, placed higher it runs before the
    producing iterations have executed. *)

open Hpf_lang
open Hpf_analysis
open Hpf_comm
open Phpf_core

let check (c : Compiler.compiled) (diff : Vutil.diff) : Diag.t list =
  let d = c.Compiler.decisions in
  let acc = ref [] in
  List.iter
    (fun (m : Comm.t) ->
      acc :=
        (match Ast.find_stmt c.Compiler.prog m.Comm.data.Aref.sid with
        | Some s when Vutil.replicated_stmt d s ->
            Diag.errorf ~code:Codes.e_divergent
              "s%d executes on every processor but reads %a, which is not \
               available everywhere and has no scheduled communication \
               (replicated copies diverge)"
              s.Ast.sid Aref.pp m.Comm.data
        | _ ->
            Diag.errorf ~code:Codes.e_missing_comm
              "read of %a needs a %a at level %d but the schedule has no \
               communication for it (stale read at the consumer)"
              Aref.pp m.Comm.data Comm.pp_kind m.Comm.kind
              m.Comm.placement_level)
        :: !acc)
    diff.Vutil.missing;
  List.iter
    (fun ((r : Comm.t), (s : Comm.t)) ->
      if r.Comm.kind <> s.Comm.kind then
        acc :=
          Diag.errorf ~code:Codes.e_misplaced_comm
            "communication for %a is a %a but the read requires a %a"
            Aref.pp r.Comm.data Comm.pp_kind s.Comm.kind Comm.pp_kind
            r.Comm.kind
          :: !acc
      else
        acc :=
          Diag.errorf ~code:Codes.e_misplaced_comm
            "communication for %a placed at level %d but its vectorization \
             level is %d (%s)"
            Aref.pp r.Comm.data s.Comm.placement_level r.Comm.placement_level
            (if s.Comm.placement_level > r.Comm.placement_level then
               "sunk below it: transfers repeat inside the loop"
             else "hoisted past it: runs before the producing iterations")
          :: !acc)
    diff.Vutil.misplaced;
  List.iter
    (fun (m : Comm.t) ->
      acc :=
        Diag.errorf ~code:Codes.e_dangling_comm
          "scheduled communication for %a references nonexistent statement \
           s%d"
          Aref.pp m.Comm.data m.Comm.data.Aref.sid
        :: !acc)
    diff.Vutil.dangling;
  List.iter
    (fun (m : Comm.t) ->
      acc :=
        Diag.warningf ~code:Codes.w_redundant_comm
          "scheduled %a of %a at level %d is required by no read reference"
          Comm.pp_kind m.Comm.kind Aref.pp m.Comm.data m.Comm.placement_level
        :: !acc)
    diff.Vutil.redundant;
  List.iter
    (fun (m : Comm.t) ->
      if Comm.in_innermost_loop m then
        acc :=
          Diag.warningf ~code:Codes.w_inner_comm
            "%a of %a was not vectorized out of its innermost loop (level \
             %d): one message per iteration"
            Comm.pp_kind m.Comm.kind Aref.pp m.Comm.data m.Comm.stmt_level
          :: !acc)
    c.Compiler.comms;
  List.rev !acc
