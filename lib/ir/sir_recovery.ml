(** The [recovery-plan] pass: compile-time classification of the
    cheapest reconstruction source for every declared datum.

    The mapping decisions already materialized in a {!Sir.program} are a
    redundancy map: a [P_all]-guarded write leaves a bit-identical copy
    on every processor, an owner-partitioned or privatized write is
    bounded by its guard and its producing region, and only
    control-dependent or union-guarded regions defeat both.  This module
    turns that observation into a {!Sir.recovery_plan} the runtime
    supervisor ({!Hpf_spmd.Recover}) executes on a crash:

    - {!Sir.R_replica} — the datum is never written, or every writer is
      [P_all]-guarded: any survivor holds a fresh copy, so the crashed
      processor re-fetches the datum as one priced block.
    - {!Sir.R_reexec} — the datum is produced by guarded writers inside
      a region whose entry dominates the failure point: replaying the
      crashed processor's own writes of that region (its share of the
      computation, bounded by the guard) reconstructs the datum.
      Reduction accumulators and their location companions are always in
      this class: their combined values differ per combine line, so no
      single survivor holds the crashed processor's copy.
    - {!Sir.R_checkpoint} — the producing region is control-dependent
      (it sits under an [If], so its entry does not dominate the failure
      point) or union-guarded (privatized control flow: the crashed
      processor's share cannot be named statically).  The plan escalates
      and the runtime must keep periodic checkpoints armed.

    Every datum gets a baseline {!Sir.R_replica} entry valid from
    initialization (before any producing region runs, init values are
    identical everywhere); region-armed entries follow in program order
    and the latest applicable entry wins at failure time. *)

open Hpf_lang
open Hpf_comm

(* ------------------------------------------------------------------ *)
(* Region structure of the source skeleton                             *)
(* ------------------------------------------------------------------ *)

(* For every statement: the sid of its outermost enclosing [Do] (or its
   own sid when unlooped) and whether that region is control-dependent
   (introduced under an [If]).  Re-executing a whole region re-derives
   any control flow *inside* it, so only [If]s *above* the region
   matter. *)
let region_map (p : Ast.program) :
    (Ast.stmt_id, Ast.stmt_id * bool) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  let rec walk ~(region : (Ast.stmt_id * bool) option) ~(under_if : bool)
      stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        let reg =
          match region with Some r -> r | None -> (s.Ast.sid, under_if)
        in
        Hashtbl.replace tbl s.Ast.sid reg;
        match s.Ast.node with
        | Ast.Assign _ | Ast.Exit _ | Ast.Cycle _ -> ()
        | Ast.If (_, t, e) ->
            walk ~region ~under_if:true t;
            walk ~region ~under_if:true e
        | Ast.Do d ->
            walk ~region:(Some reg) ~under_if d.Ast.body)
      stmts
  in
  walk ~region:None ~under_if:false p.Ast.body;
  tbl

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let lhs_base = function Ast.LVar v -> v | Ast.LArr (a, _) -> a

let is_p_all = function Sir.P_all -> true | Sir.P_place _ | Sir.P_union _ -> false
let is_p_union = function Sir.P_union _ -> true | Sir.P_all | Sir.P_place _ -> false

let plan (p : Sir.program) : Sir.recovery_plan =
  let regions = region_map p.Sir.source in
  (* guarded writers per datum, in statement-id (program) order *)
  let writers : (string, (Ast.stmt_id * Sir.pred) list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (so : Sir.stmt_ops) ->
      match so.Sir.exec with
      | Sir.Guarded_assign { lhs; computes; _ } ->
          let base = lhs_base lhs in
          let cur =
            Option.value ~default:[] (Hashtbl.find_opt writers base)
          in
          Hashtbl.replace writers base (cur @ [ (so.Sir.sid, computes) ])
      | Sir.Control _ | Sir.Loop_head _ -> ())
    (Sir.all_stmt_ops p);
  (* reduction accumulators and location companions: combined values
     differ per combine line, so replication never holds for them *)
  let forced = Hashtbl.create 8 in
  Array.iter
    (fun (r : Sir.reduce) ->
      Hashtbl.replace forced r.Sir.rvar ();
      List.iter (fun v -> Hashtbl.replace forced v ()) r.Sir.loc_vars)
    p.Sir.reductions;
  let entries =
    List.concat_map
      (fun (d : Ast.decl) ->
        let name = d.Ast.dname in
        let ws = Option.value ~default:[] (Hashtbl.find_opt writers name) in
        let baseline =
          {
            Sir.datum = name;
            from_region = None;
            source = Sir.R_replica { holders = Sir.P_all };
          }
        in
        let replicated =
          ws = []
          || (not (Hashtbl.mem forced name))
             && List.for_all (fun (_, g) -> is_p_all g) ws
        in
        if replicated then [ baseline ]
        else
          (* group the writers by producing region, preserving program
             order (regions are disjoint preorder subtrees) *)
          let groups : (Ast.stmt_id * bool * (Ast.stmt_id * Sir.pred) list) list
              =
            List.fold_left
              (fun acc ((sid, _) as w) ->
                let region, under_if =
                  match Hashtbl.find_opt regions sid with
                  | Some r -> r
                  | None -> (sid, false)
                in
                match
                  List.partition (fun (r, _, _) -> r = region) acc
                with
                | [ (r, u, ws) ], rest -> rest @ [ (r, u, ws @ [ w ]) ]
                | _ -> acc @ [ (region, under_if, [ w ]) ])
              [] ws
          in
          baseline
          :: List.map
               (fun (region, under_if, producers) ->
                 let source =
                   if
                     under_if
                     || List.exists (fun (_, g) -> is_p_union g) producers
                   then Sir.R_checkpoint
                   else
                     Sir.R_reexec
                       {
                         producers = List.map fst producers;
                         region;
                         guard = snd (List.hd producers);
                       }
                 in
                 { Sir.datum = name; from_region = Some region; source })
               groups)
      p.Sir.source.Ast.decls
  in
  {
    Sir.entries;
    checkpoints_needed =
      List.exists
        (fun (e : Sir.rentry) -> e.Sir.source = Sir.R_checkpoint)
        entries;
  }

(* ------------------------------------------------------------------ *)
(* Analytic single-crash failover price                                *)
(* ------------------------------------------------------------------ *)

type estimate = {
  replica_refetches : int;  (** datums re-fetched from a survivor *)
  region_replays : int;  (** datums reconstructed by region replay *)
  checkpoint_restores : int;  (** datums escalated to checkpoint *)
  detect_time : float;  (** suspect + confirm heartbeat windows *)
  refetch_time : float;  (** priced as one block transfer per datum *)
  replay_time : float;  (** local copy cost of the owned share *)
  restore_time : float;  (** snapshot restore of escalated datums *)
}

let total_time (e : estimate) : float =
  e.detect_time +. e.refetch_time +. e.replay_time +. e.restore_time

(* Worst-interval (end-of-run) single-crash price: the latest entry of
   each datum is the one in force.  Replica datums ship whole as one
   point-to-point block; re-executed datums replay the crashed
   processor's owned share (size / nprocs, at local copy speed);
   escalated datums restore from snapshot at copy speed. *)
let estimate_failover ?(model = Cost_model.sp2) ~(heartbeat_timeout : float)
    (p : Sir.program) (plan : Sir.recovery_plan) : estimate =
  let elems_of name =
    match Ast.find_decl p.Sir.source name with
    | Some d when d.Ast.shape <> [] -> Types.size d.Ast.shape
    | _ -> 1
  in
  let last_entry name =
    List.fold_left
      (fun acc (e : Sir.rentry) ->
        if String.equal e.Sir.datum name then Some e else acc)
      None plan.Sir.entries
  in
  let acc =
    ref
      {
        replica_refetches = 0;
        region_replays = 0;
        checkpoint_restores = 0;
        detect_time = 2.0 *. heartbeat_timeout;
        refetch_time = 0.0;
        replay_time = 0.0;
        restore_time = 0.0;
      }
  in
  List.iter
    (fun (d : Ast.decl) ->
      let elems = elems_of d.Ast.dname in
      match last_entry d.Ast.dname with
      | None -> ()
      | Some { Sir.source = Sir.R_replica _; _ } ->
          acc :=
            {
              !acc with
              replica_refetches = !acc.replica_refetches + 1;
              refetch_time = !acc.refetch_time +. Cost_model.ptp model ~elems;
            }
      | Some { Sir.source = Sir.R_reexec _; _ } ->
          let owned = max 1 (elems / max 1 p.Sir.nprocs) in
          acc :=
            {
              !acc with
              region_replays = !acc.region_replays + 1;
              replay_time =
                !acc.replay_time
                +. (model.Cost_model.copy *. float_of_int owned);
            }
      | Some { Sir.source = Sir.R_checkpoint; _ } ->
          acc :=
            {
              !acc with
              checkpoint_restores = !acc.checkpoint_restores + 1;
              restore_time =
                !acc.restore_time
                +. (model.Cost_model.copy *. float_of_int elems);
            })
    p.Sir.source.Ast.decls;
  !acc
