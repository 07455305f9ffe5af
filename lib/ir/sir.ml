(** The lowered SPMD intermediate representation.

    A [Sir.program] is the explicit per-processor form of a compiled
    program: every decision the mapping passes made — ownership chains,
    computation-partitioning guards, communication placement, message
    aggregation, privatized storage, reduction combining — is resolved
    at lowering time ({!Phpf_core.Lower_spmd}) and materialized as data.
    The three downstream consumers (the SPMD executor
    {!Hpf_spmd.Spmd_interp}, the timing simulator
    {!Hpf_spmd.Trace_sim}, and the verifier's
    {!Phpf_verify.Sir_check}) read this structure instead of re-deriving
    anything from {!Phpf_core.Decisions}.

    Control flow stays structured: [source] is the checked AST, and the
    lowered ops of each statement are attached by statement id
    ({!stmt_ops}).  Everything {e except} subscript values is static; the
    executor evaluates the [Ast.expr] leaves embedded in coordinates and
    regions against the lockstep reference memory. *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping

(** One grid-dimension coordinate of an owner, with the dynamic part (a
    subscript expression) kept symbolic.  [C_affine] is a fully resolved
    distribution-format application: the owner coordinate is
    [Dist.owner_coord fmt ~nprocs (stride*eval(sub) + offset - dim_lo)]. *)
type coord =
  | C_all  (** replicated along this grid dimension *)
  | C_fixed of int
  | C_affine of {
      fmt : Dist.format;
      nprocs : int;
      stride : int;
      offset : int;
      dim_lo : int;
      sub : Ast.expr;  (** evaluated in the reference memory *)
    }

(** Owner line: one {!coord} per grid dimension (the flattened
    alignment/privatization chain of a reference). *)
type place = coord array

(** A computation-partitioning guard, materialized.  [P_union] is the
    union of the sibling statements' owner lines (privatization without
    alignment, privatized control flow); an empty evaluated union falls
    back to all processors. *)
type pred = P_all | P_place of place | P_union of place list

(** Per-grid-dimension owner of an array {e element} (index-vector
    addressed, used for whole-array transfers and validation). *)
type ecoord =
  | E_all
  | E_fixed of int
  | E_dim of {
      array_dim : int;  (** which index of the element addresses this dim *)
      fmt : Dist.format;
      nprocs : int;
      stride : int;
      offset : int;
      dim_lo : int;
    }

type eplace = ecoord array

(** A crossed loop of a block transfer: the region walked at the first
    statement instance of each placement instance. *)
type loop_desc = {
  index : string;
  lo : Ast.expr;
  hi : Ast.expr;
  step : Ast.expr;
}

(** The moved datum of a transfer op, with its owner line. *)
type xdata =
  | X_scalar of { var : string; owner : place }
  | X_elem of { base : string; subs : Ast.expr list; owner : place }

(** Destinations of a transfer: every processor (broadcast) or the
    executing set of the anchor statement. *)
type dests = D_all | D_pred of pred

type xfer =
  | Elem_xfer of { data : xdata; dests : dests }
      (** one scalar or element per statement instance *)
  | Whole_xfer of { base : string; owners : eplace; dests : dests }
      (** an unsubscripted array actual: every element travels from its
          directive owner *)
  | Block_xfer of {
      data : xdata;
      dests : dests;
      crossed : loop_desc list;  (** outermost first *)
      prefix_vars : string list;
          (** loop indices naming one placement instance; the block
              ships once per distinct prefix *)
    }
      (** aggregation materialized: one {!Hpf_spmd.Msg.Block} per
          (src, dst) pair and placement instance *)
  | Reduce_xfer
      (** a scheduled reduction collective; the data motion is performed
          by the {!red_step} combine logic, this op carries the pricing
          provenance only *)

(** A lowered communication: [pos] is its position in the compiled
    schedule (the pricing order), [uid] is unique across the program
    (the executor's per-op state key), [cm] the scheduled descriptor it
    was lowered from. *)
type comm_op = { uid : int; pos : int; cm : Hpf_comm.Comm.t; xfer : xfer }

(** A reduction accumulator spanning grid dimensions, with the combine
    lines precomputed: each line is the set of processors sharing grid
    coordinates outside [repl_dims], whose partials are folded under
    [rop] and redistributed (location companions follow the winner). *)
type reduce = {
  rvar : string;
  rop : Reduction.red_op;
  loc_vars : string list;
  repl_dims : int list;
  lines : int list list;
}

(** Per-statement reduction bookkeeping, in accumulator order: mark the
    accumulator dirty (this statement accumulates into it) or combine
    the partials (this statement reads it). *)
type red_step = R_mark of string | R_combine of int  (** index into [reductions] *)

(** What a statement instance executes. *)
type exec =
  | Control of { computes : pred }
      (** [If]/[Exit]/[Cycle]: control follows the skeleton; [computes]
          records the processors that evaluate it (privatized control
          flow) *)
  | Guarded_assign of { lhs : Ast.lhs; rhs : Ast.expr; computes : pred }
  | Loop_head of { index : string; lo : Ast.expr }
      (** every processor materializes the loop index (SPMD structure) *)

(** The lowered ops of one statement, applied in field order at each
    instance: mirror the enclosing indices, run the reduction steps,
    perform the communications, then execute. *)
type stmt_ops = {
  sid : Ast.stmt_id;
  mirror : string list;  (** enclosing loop indices, outermost first *)
  red_steps : red_step list;
  comms : comm_op list;  (** execution order *)
  exec : exec;
}

(** The storage decision for a privatized variable. *)
type priv_mapping =
  | A_replicated
  | A_unaligned
  | A_aligned of { target : Aref.t; level : int }
  | A_reduction of { target : Aref.t; repl_dims : int list }
  | A_array of { target : Aref.t option; loop_sid : Ast.stmt_id }
  | A_array_partial of {
      target : Aref.t;
      priv_dims : int list;
      loop_sid : Ast.stmt_id;
    }

type alloc = { name : string; mapping : priv_mapping }

(** Validation plan for one declared array: skip (fully privatized, its
    values are dead after the loop), check each element at its owners,
    or — partially privatized — require at least one processor of the
    element's owner line (privatized dims widened) to hold the
    reference value. *)
type vcheck =
  | V_skip of string
  | V_owned of string * eplace
  | V_line of string * eplace

(** Cheapest reconstruction source for one datum after a fail-stop
    crash, classified at compile time from the mapping decisions. *)
type rsource =
  | R_replica of { holders : pred }
      (** every writer is [P_all]-guarded (or the datum is never
          written): any survivor holds a bit-identical copy *)
  | R_reexec of {
      producers : Ast.stmt_id list;  (** the guarded writers *)
      region : Ast.stmt_id;  (** outermost enclosing producing region *)
      guard : pred;  (** the crashed processor's share of the region *)
    }
      (** owner-partitioned or privatized: replay the crashed
          processor's own writes of the producing region *)
  | R_checkpoint
      (** last resort: the producing region is control-dependent or
          union-guarded, so replay does not dominate the failure point *)

(** One plan entry.  [from_region = None] means the entry is valid from
    initialization; [Some sid] arms it once region [sid] has been
    entered. *)
type rentry = {
  datum : string;
  from_region : Ast.stmt_id option;
  source : rsource;
}

type recovery_plan = {
  entries : rentry list;  (** program order; latest applicable wins *)
  checkpoints_needed : bool;
      (** [true] iff any entry escalates to {!R_checkpoint}: the runtime
          must keep periodic checkpoints armed *)
}

(** Where a delivery fact came from ({!Sir_dataflow}): the identical
    initial memories, a transfer op (by uid), or a guarded write at a
    statement. *)
type fact_source = F_init | F_op of int | F_write of Ast.stmt_id

(** The evidence one {!Sir_opt} rewrite records, in terms of the ops of
    the program it rewrote. *)
type witness =
  | W_dead of { uid : int }
  | W_redundant of { uid : int; covers : fact_source list }
  | W_merge of { members : int list; block : comm_op }
  | W_hoist of { uid : int; dropped : string list }
  | W_combine of {
      sid : Ast.stmt_id;
      steps : int list;
      reduce_uids : int list;
    }

type program = {
  source : Ast.program;  (** control skeleton the executor walks *)
  grid : Grid.t;
  nprocs : int;
  allocs : alloc list;
  reductions : reduce array;
  stmts : (Ast.stmt_id, stmt_ops) Hashtbl.t;
  validate_plan : vcheck list;
  mutable recovery : recovery_plan option;
      (** attached by the [recovery-plan] pass ({!Sir_recovery}) *)
  mutable opt_applied : witness list;
      (** {!Sir_opt} rewrites, in application order *)
}

let stmt_ops (p : program) (sid : Ast.stmt_id) : stmt_ops option =
  Hashtbl.find_opt p.stmts sid

(** All communication ops, in schedule (pricing) order. *)
let schedule (p : program) : comm_op list =
  Hashtbl.fold (fun _ s acc -> s.comms @ acc) p.stmts []
  |> List.sort (fun a b -> compare a.pos b.pos)

(** Statement entries in statement-id order (deterministic view). *)
let all_stmt_ops (p : program) : stmt_ops list =
  Hashtbl.fold (fun _ s acc -> s :: acc) p.stmts []
  |> List.sort (fun a b -> compare a.sid b.sid)

type op_counts = {
  assigns : int;  (** guarded-assign ops *)
  elem_xfers : int;
  whole_xfers : int;
  block_xfers : int;
  reduce_ops : int;  (** reduce comm ops + combine lines *)
  alloc_ops : int;
}

let op_counts (p : program) : op_counts =
  let assigns = ref 0
  and elems = ref 0
  and wholes = ref 0
  and blocks = ref 0
  and reduces = ref (Array.length p.reductions) in
  List.iter
    (fun (s : stmt_ops) ->
      (match s.exec with Guarded_assign _ -> incr assigns | _ -> ());
      List.iter
        (fun (op : comm_op) ->
          match op.xfer with
          | Elem_xfer _ -> incr elems
          | Whole_xfer _ -> incr wholes
          | Block_xfer _ -> incr blocks
          | Reduce_xfer -> incr reduces)
        s.comms)
    (all_stmt_ops p);
  {
    assigns = !assigns;
    elem_xfers = !elems;
    whole_xfers = !wholes;
    block_xfers = !blocks;
    reduce_ops = !reduces;
    alloc_ops = List.length p.allocs;
  }

let total_ops (c : op_counts) =
  c.assigns + c.elem_xfers + c.whole_xfers + c.block_xfers + c.reduce_ops
  + c.alloc_ops
