(** Shared machinery of the verifier's checkers. *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping
open Hpf_comm
open Phpf_core

let sid_of_node (d : Decisions.t) (node : int) : Ast.stmt_id option =
  Cfg.sid_of_node d.Decisions.ssa.Ssa.cfg node

let loop_sid_of_head (d : Decisions.t) (node : int) : Ast.stmt_id option =
  match (Cfg.node d.Decisions.ssa.Ssa.cfg node).Cfg.kind with
  | Cfg.Loop_head s -> Some s.Ast.sid
  | _ -> None

let equal_owner_dim (a : Ownership.owner_dim) (b : Ownership.owner_dim) : bool
    =
  match (a, b) with
  | Ownership.O_all, Ownership.O_all -> true
  | Ownership.O_fixed x, Ownership.O_fixed y -> x = y
  | ( Ownership.O_affine { fmt = f1; nprocs = n1; pos = p1 },
      Ownership.O_affine { fmt = f2; nprocs = n2; pos = p2 } ) ->
      f1 = f2 && n1 = n2 && Affine.equal p1 p2
  | Ownership.O_unknown, Ownership.O_unknown -> true
  | _ -> false

let equal_spec (a : Ownership.spec) (b : Ownership.spec) : bool =
  Array.length a = Array.length b
  && Array.for_all2 equal_owner_dim a b

let dim_covers ~(exec : Ownership.owner_dim) ~(owner : Ownership.owner_dim) :
    bool =
  match exec with
  | Ownership.O_all -> true
  | _ -> (
      (* without replication of the executors, coverage needs provably
         identical coordinates; O_unknown owners could sit anywhere *)
      match owner with
      | Ownership.O_unknown -> false
      | _ -> equal_owner_dim exec owner)

let covers ~(execs : Ownership.spec) ~(owners : Ownership.spec) : bool =
  Array.length execs = Array.length owners
  && Array.for_all2 (fun e o -> dim_covers ~exec:e ~owner:o) execs owners

let strictly_wider ~(execs : Ownership.spec) ~(owners : Ownership.spec) : bool
    =
  covers ~execs ~owners
  && Array.exists2
       (fun e o -> (not (equal_owner_dim e o)) && e = Ownership.O_all)
       execs owners

type diff = {
  missing : Comm.t list;
  misplaced : (Comm.t * Comm.t) list;
  redundant : Comm.t list;
  dangling : Comm.t list;
  matched : int;
}

let comm_diff (c : Compiler.compiled) : diff =
  let d = c.Compiler.decisions in
  let required =
    Comm_analysis.analyze c.Compiler.prog d.Decisions.nest (Consumer.oracle d)
      ~reductions:d.Decisions.reductions
      ~red_group:(Reduction_map.combine_group d)
      ~elide_unwritten:d.Decisions.options.Decisions.optimize ()
  in
  let dangling, scheduled =
    List.partition
      (fun (cm : Comm.t) ->
        Nest.find_stmt d.Decisions.nest cm.Comm.data.Aref.sid = None)
      c.Compiler.comms
  in
  (* greedy multiset matching on the moved reference: an exact
     (kind, placement) twin first, else any descriptor for the same data
     (a misplacement), else the requirement is unmet *)
  let pool = ref scheduled in
  let take p =
    let rec go acc = function
      | [] -> None
      | x :: rest when p x ->
          pool := List.rev_append acc rest;
          Some x
      | x :: rest -> go (x :: acc) rest
    in
    go [] !pool
  in
  let missing = ref [] and misplaced = ref [] and matched = ref 0 in
  List.iter
    (fun (r : Comm.t) ->
      let same_data (s : Comm.t) = Aref.equal s.Comm.data r.Comm.data in
      match
        take (fun s ->
            same_data s
            && s.Comm.kind = r.Comm.kind
            && s.Comm.placement_level = r.Comm.placement_level)
      with
      | Some _ -> incr matched
      | None -> (
          match take same_data with
          | Some s -> misplaced := (r, s) :: !misplaced
          | None -> missing := r :: !missing))
    required;
  {
    missing = List.rev !missing;
    misplaced = List.rev !misplaced;
    redundant = !pool;
    dangling;
    matched = !matched;
  }

let replicated_stmt (d : Decisions.t) (s : Ast.stmt) : bool =
  Ownership.is_replicated_spec (Decisions.guard_spec d s)
