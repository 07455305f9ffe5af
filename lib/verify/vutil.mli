(** Shared machinery of the verifier's checkers: owner-spec comparison,
    CFG-to-statement mapping, and the independently re-derived
    communication requirement diffed against the compiled schedule
    (read by [verify-comm] alone). *)

open Hpf_lang
open Hpf_mapping
open Hpf_comm
open Phpf_core

(** Statement a CFG node originates from. *)
val sid_of_node : Decisions.t -> int -> Ast.stmt_id option

(** Loop header statement of a CFG back-edge head node ([Loop_head]). *)
val loop_sid_of_head : Decisions.t -> int -> Ast.stmt_id option

val equal_owner_dim : Ownership.owner_dim -> Ownership.owner_dim -> bool
val equal_spec : Ownership.spec -> Ownership.spec -> bool

(** [dim_covers ~exec ~owner]: does every coordinate the owner dimension
    can take also execute ([exec])?  [O_all] executors cover anything;
    otherwise coverage requires provably equal coordinates. *)
val dim_covers : exec:Ownership.owner_dim -> owner:Ownership.owner_dim -> bool

(** Pointwise {!dim_covers} over two specs of equal rank. *)
val covers : execs:Ownership.spec -> owners:Ownership.spec -> bool

(** Executor set strictly wider than the owner set on some dimension
    (and covering everywhere) — a redundant replicated write. *)
val strictly_wider : execs:Ownership.spec -> owners:Ownership.spec -> bool

type diff = {
  missing : Comm.t list;  (** required but absent from the schedule *)
  misplaced : (Comm.t * Comm.t) list;
      (** (required, scheduled): same data, wrong kind or placement *)
  redundant : Comm.t list;  (** scheduled but not required *)
  dangling : Comm.t list;  (** scheduled for a nonexistent statement *)
  matched : int;  (** exact (data, kind, placement) matches *)
}

(** Diff the compiled schedule against the schedule the decisions
    actually require, re-derived from {!Decisions.t} through the same
    consumer rules the compiler uses (paper Fig. 2).  Requirements are
    matched in program order. *)
val comm_diff : Compiler.compiled -> diff

(** Is the statement executed by every processor under the current
    decisions (a replicated computation)? *)
val replicated_stmt : Decisions.t -> Ast.stmt -> bool
