(** Flow-sensitive audits of the lowered SPMD IR (the [verify-flow]
    pass).

    {!Sir_check} verifies that the recorded {!Phpf_ir.Sir} program
    faithfully implements the decisions; this checker asks the
    orthogonal question of what each transfer actually {e delivers}
    along the control-flow paths of the program.  The two fixpoints and
    the dead/redundant classification live in
    {!Phpf_ir.Sir_dataflow} — shared with the {!Phpf_ir.Sir_opt}
    optimizer, so the warnings this pass reports and the deletions the
    optimizer performs can never disagree.  On top of that core this
    module adds the two audits that need the full compile record:

    - {b stale read} ([E0612]): a communication the compiled schedule
      carries — the schedule [verify-comm] audits against the decisions
      — is not satisfied at its consumer by any reaching delivery or
      local write of the recorded ops on some path;
    - {b guard audit} ([W0608]): a materialized [P_place]/[P_union]
      predicate that is statically empty or has a member implied by a
      sibling member;

    and renders the dead/redundant classes as [W0606]/[W0607]
    findings.  The warning classes are exactly the static halves of the
    delete-and-diff oracle tested in [test_flow.ml]: an op flagged
    [W0606]/[W0607] can be deleted from the recorded program without
    changing the executor's validation verdict, and deleting any other
    op makes the availability check report [E0612]. *)

open Hpf_lang
open Hpf_mapping
open Phpf_core
module Sir = Phpf_ir.Sir
module Sir_cfg = Phpf_ir.Sir_cfg
module Sir_pp = Phpf_ir.Sir_pp
module Flow = Phpf_ir.Flow
module Comm = Hpf_comm.Comm
module Aref = Hpf_analysis.Aref

(* The coverage lattice, delivery facts, fixpoints and the
   dead/redundant classification, re-exported from the shared core. *)
include Phpf_ir.Sir_dataflow

type req = {
  cm : Comm.t;  (** the scheduled descriptor *)
  key : dkey;
  need : Sir.dests;
  node : int;  (** instance node of the consumer statement *)
}

let req_key (prog : Ast.program) (r : Comm.t) : dkey =
  let a = r.Comm.data in
  if a.Aref.subs = [] then
    if Ast.is_array prog a.Aref.base then K_whole a.Aref.base
    else K_scalar a.Aref.base
  else K_elem (a.Aref.base, a.Aref.subs)

(* The processors that read the datum: the consumer's recorded guard,
   an assignment's or a control statement's alike; every processor
   evaluates a loop head's bounds. *)
let req_need (g : Sir_cfg.t) (r : Comm.t) : Sir.dests =
  if r.Comm.kind = Comm.Broadcast then Sir.D_all
  else
    match Sir.stmt_ops g.Sir_cfg.program r.Comm.data.Aref.sid with
    | Some
        {
          exec = Sir.Guarded_assign { computes; _ } | Sir.Control { computes };
          _;
        } ->
        Sir.D_pred computes
    | Some { exec = Sir.Loop_head _; _ } | None -> Sir.D_all

(* Reductions are combined, not delivered to a consumer. *)
let req_of (g : Sir_cfg.t) (r : Comm.t) : req option =
  if r.Comm.kind = Comm.Reduce then None
  else
    match instance_node g r.Comm.data.Aref.sid with
    | None -> None
    | Some node ->
        Some
          {
            cm = r;
            key = req_key g.Sir_cfg.program.Sir.source r;
            need = req_need g r;
            node;
          }

(* The flow check audits the recorded IR against the compiled
   schedule, not against a re-derivation of it: a requirement the
   schedule lacks is verify-comm's E0603, and a scheduled communication
   nothing requires its W0603. *)
let requirements (c : Compiler.compiled) (g : Sir_cfg.t) : req list =
  List.filter_map (req_of g) c.Compiler.comms

let statically_empty_coord (grid : Grid.t) (dim : int) = function
  | Sir.C_fixed c -> c < 0 || c >= Grid.extent grid dim
  | Sir.C_all | Sir.C_affine _ -> false

let statically_empty_place (grid : Grid.t) (p : Sir.place) : bool =
  Array.length p = Grid.rank grid
  && Array.exists
       (fun dim -> statically_empty_coord grid dim p.(dim))
       (Array.init (Array.length p) Fun.id)

let check_pred (grid : Grid.t) ~(what : string) (p : Sir.pred) : Diag.t list
    =
  match p with
  | Sir.P_all -> []
  | Sir.P_place pl ->
      if statically_empty_place grid pl then
        [
          Diag.warningf ~code:Codes.w_guard
            "%s is statically empty: a fixed owner coordinate lies \
             outside the processor grid, so it never selects any \
             processor"
            what;
        ]
      else []
  | Sir.P_union ps ->
      let ps = Array.of_list ps in
      let n = Array.length ps in
      if n > 0 && Array.for_all (statically_empty_place grid) ps then
        [
          Diag.warningf ~code:Codes.w_guard
            "%s is statically empty: every member of the union lies \
             outside the processor grid (the evaluated union falls back \
             to all processors)"
            what;
        ]
      else
        (* only strict subsumption: the lowering routinely emits
           duplicate union members (one per co-owned reference), which
           are not worth a warning *)
        let subsumed = ref [] in
        for i = 0 to n - 1 do
          let by_other = ref false in
          for j = 0 to n - 1 do
            if
              j <> i
              && (not !by_other)
              && place_covers ~have:ps.(j) ~need:ps.(i)
              && not (place_covers ~have:ps.(i) ~need:ps.(j))
            then by_other := true
          done;
          if !by_other then subsumed := i :: !subsumed
        done;
        List.rev_map
          (fun i ->
            Diag.warningf ~code:Codes.w_guard
              "%s: union member %a is implied by another member — the \
               guard can be simplified"
              what Sir_pp.pp_place ps.(i))
          !subsumed

let check_guards (sir : Sir.program) : Diag.t list =
  List.concat_map
    (fun (ops : Sir.stmt_ops) ->
      let of_exec =
        match ops.Sir.exec with
        | Sir.Guarded_assign { computes; _ } | Sir.Control { computes } ->
            check_pred sir.Sir.grid
              ~what:(Fmt.str "computes guard of s%d" ops.Sir.sid)
              computes
        | Sir.Loop_head _ -> []
      in
      let of_comms =
        List.concat_map
          (fun (op : Sir.comm_op) ->
            match dests_of_xfer op.Sir.xfer with
            | Some (Sir.D_pred p) ->
                check_pred sir.Sir.grid
                  ~what:
                    (Fmt.str "destination set of transfer c%d at s%d"
                       op.Sir.pos ops.Sir.sid)
                  p
            | Some Sir.D_all | None -> [])
          ops.Sir.comms
      in
      of_exec @ of_comms)
    (Sir.all_stmt_ops sir)

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

type analysis = {
  cfg : Sir_cfg.t;
  universe : universe;
  avail : Avail.t Flow.result;
  live : Live.t Flow.result;
  dead : Sir.comm_op list;  (** ops flagged W0606 *)
  redundant : Sir.comm_op list;  (** ops flagged W0607 *)
  stale : req list;  (** unsatisfied requirements (E0612) *)
  findings : Diag.t list;
}

(** Ops whose removal the analysis certifies as observation-preserving
    (the delete-and-diff oracle's removable class). *)
let removable (a : analysis) : Sir.comm_op list =
  List.sort_uniq compare (a.dead @ a.redundant)

let analyze ?(flow = summarize) (c : Compiler.compiled) : analysis option =
  match c.Compiler.sir with
  | None -> None
  | Some sir ->
      let s = flow sir in
      let cfg = s.Phpf_ir.Sir_dataflow.cfg in
      (* E0612: every schedule-acknowledged requirement must be covered
         at its consumer by the in-state plus the node's own deliveries *)
      let stale =
        List.filter
          (fun r -> not (covered_at s r.node ~key:r.key ~need:r.need))
          (requirements c cfg)
      in
      let dead = s.Phpf_ir.Sir_dataflow.dead
      and redundant = s.Phpf_ir.Sir_dataflow.redundant in
      let findings =
        List.map
          (fun r ->
            Diag.errorf ~code:Codes.e_stale_read
              "s%d reads %a with no reaching transfer or local write \
               along some path: the %a consumer can observe a stale or \
               uninitialized copy"
              r.cm.Comm.data.Aref.sid Aref.pp r.cm.Comm.data Comm.pp_kind
              r.cm.Comm.kind)
          stale
        @ List.map
            (fun (sid, (op : Sir.comm_op)) ->
              Diag.warningf ~code:Codes.w_dead_xfer
                "transfer c%d (%a) at s%d is dead: its payload is \
                 overwritten or never read before the validity scope \
                 ends"
                op.Sir.pos Aref.pp op.Sir.cm.Comm.data sid)
            dead
        @ List.map
            (fun (sid, (op : Sir.comm_op)) ->
              Diag.warningf ~code:Codes.w_redundant_xfer
                "transfer c%d (%a) at s%d is redundant: the data is \
                 already valid at every destination from a dominating \
                 delivery"
                op.Sir.pos Aref.pp op.Sir.cm.Comm.data sid)
            redundant
        @ check_guards sir
      in
      Some
        {
          cfg;
          universe = s.Phpf_ir.Sir_dataflow.universe;
          avail = s.Phpf_ir.Sir_dataflow.avail;
          live = s.Phpf_ir.Sir_dataflow.live;
          dead = List.map snd dead;
          redundant = List.map snd redundant;
          stale;
          findings;
        }

let check (c : Compiler.compiled) : Diag.t list =
  match analyze c with None -> [] | Some a -> a.findings


(* ------------------------------------------------------------------ *)
(* The --dump-after verify-flow rendering                              *)
(* ------------------------------------------------------------------ *)

let pp_analysis ppf (a : analysis) =
  Fmt.pf ppf "flow: %d block(s), %d fixpoint iteration(s)@."
    (Sir_cfg.n_nodes a.cfg)
    (a.avail.Flow.iterations + a.live.Flow.iterations);
  Array.iter
    (fun (n : Sir_cfg.node) ->
      let i = n.Sir_cfg.id
      and pp_avail = pp_avail a.universe
      and pp_live = pp_live a.universe in
      Fmt.pf ppf "b%d [%a]@." i Sir_cfg.pp_kind n.Sir_cfg.kind;
      Fmt.pf ppf "  avail in : %a@." pp_avail a.avail.Flow.input.(i);
      Fmt.pf ppf "  avail out: %a@." pp_avail a.avail.Flow.output.(i);
      Fmt.pf ppf "  live out : %a@." pp_live a.live.Flow.input.(i);
      Fmt.pf ppf "  live in  : %a@." pp_live a.live.Flow.output.(i))
    a.cfg.Sir_cfg.nodes

let dump (c : Compiler.compiled) : string option =
  match analyze c with
  | None -> None
  | Some a -> Some (Fmt.str "%a" pp_analysis a)
