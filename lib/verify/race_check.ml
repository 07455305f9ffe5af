(** SPMD race detector.

    Under the owner-computes rule the processor owning the written
    element must be among the statement's executors, or its copy goes
    stale while another processor's differs — a write-write race with
    the subsequent reader ([E0607]).  The owner side is taken from the
    HPF directives alone ({!Phpf_core.Decisions.directive_spec}), the
    executor side from the compiled guard, so the two derivations are
    independent.  Privatized arrays are exempt: their storage is local
    to each executor by construction.

    The other race class, divergent replication ([E0608]), is a
    communication the schedule lacks at a statement every processor
    executes; {!Comm_check} reports it from the one requirement diff. *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping
open Phpf_core

let check_write (c : Compiler.compiled) (s : Ast.stmt) (acc : Diag.t list ref)
    =
  let d = c.Compiler.decisions in
  match s.Ast.node with
  | Ast.Assign (Ast.LArr (base, subs), _)
    when Decisions.array_mapping_at d ~sid:s.Ast.sid ~base = None ->
      let lhs = { Aref.sid = s.Ast.sid; base; subs } in
      let owners = Decisions.directive_spec d lhs in
      let execs = Decisions.guard_spec d s in
      (* a guard that literally names the written reference is the
         owner-computes rule itself: covered by construction, even when
         non-affine subscripts make both specs O_unknown *)
      let owner_computes =
        match Decisions.guard_of_stmt d s with
        | Decisions.G_ref r -> Aref.equal r lhs
        | _ -> false
      in
      if owner_computes then ()
      else if not (Vutil.covers ~execs ~owners) then
        acc :=
          Diag.errorf ~code:Codes.e_owner_coverage
            "s%d writes %a but its executors do not include the owner of \
             every written element (the owner's copy goes stale)"
            s.Ast.sid Aref.pp lhs
          :: !acc
      else if
        Vutil.strictly_wider ~execs ~owners
        && Ownership.is_partitioned_spec owners
      then
        acc :=
          Diag.warningf ~code:Codes.w_redundant_write
            "s%d writes %a on every processor although the data is \
             partitioned (redundant replicated write)"
            s.Ast.sid Aref.pp lhs
          :: !acc
  | _ -> ()

let check (c : Compiler.compiled) : Diag.t list =
  let acc = ref [] in
  Ast.iter_program (fun s -> check_write c s acc) c.Compiler.prog;
  List.rev !acc
