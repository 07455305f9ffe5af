(** The mapping algorithm for privatized scalars — paper §2.2, Fig. 3.

    For each scalar definition (SSA), in program order:

    + default mapping is replication;
    + if the definition is privatizable w.r.t. (the innermost possible)
      enclosing loop:
      {ul
      {- if all rhs data is replicated and this is the unique reaching
         definition of all its reached uses, defer it to the
         [NoAlignExam] list (privatization without alignment is decided
         at the end of the pass, when the mappings of rhs scalars are
         final);}
      {- traverse the reached uses and select a {e consumer} reference
         (a use in a loop bound or broadcast subscript selects the dummy
         replicated reference and stops the traversal; consumer
         references to replicated data are ignored; privatizable scalar
         consumers are resolved by a recursive invocation);}
      {- when the rhs reads partitioned data and either no consumer was
         found or aligning with it would leave {e inner-loop}
         communication for some rhs reference (a {!Hpf_comm.Vectorize}
         placement query — the "realistic cost model"), select a
         partitioned {e producer} reference instead;}
      {- if the selected target's [AlignLevel] does not exceed the
         privatization level, record the alignment — identically on
         every reaching definition of every reached use, so later phases
         can read the mapping off any reaching definition.}}

    Reduction accumulators are excluded here; {!Reduction_map} handles
    them (paper §2.3). *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping
open Hpf_comm

let src = Logs.Src.create "phpf.mapping" ~doc:"privatized-scalar mapping"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Queries on statements                                               *)
(* ------------------------------------------------------------------ *)

(* The assignment statement making a given scalar definition. *)
let stmt_of_def (d : Decisions.t) (def : Ssa.def_id) : Ast.stmt option =
  match d.Decisions.ssa.Ssa.defs.(def) with
  | Ssa.Node_def { node; _ } -> (
      match (Cfg.node d.Decisions.ssa.Ssa.cfg node).kind with
      | Cfg.Simple s -> ( match s.node with Ast.Assign _ -> Some s | _ -> None)
      | _ -> None)
  | Ssa.Entry_def _ | Ssa.Phi _ -> None

(* IsRhsReplicated: every read reference of the statement refers to
   replicated data under the current decisions. *)
let is_rhs_replicated (d : Decisions.t) (s : Ast.stmt) : bool =
  Consumer.classify_refs d.Decisions.prog s
  |> List.filter (fun (r, _) -> not (Consumer.skip_ref d r))
  |> List.for_all (fun ((r : Aref.t), _role) ->
         Ownership.is_replicated_spec (Decisions.owner_spec d r))

(* Score an alignment candidate: prefer a reference in which a
   distributed dimension is traversed in the innermost loop common to the
   definition and the reference (paper: prefer A(i) over A(1)). *)
let candidate_score (d : Decisions.t) ~(def_sid : Ast.stmt_id)
    (cand : Aref.t) : int =
  let nest = d.Decisions.nest in
  let common = Nest.common_level nest def_sid cand.Aref.sid in
  let indices = Nest.enclosing_indices nest cand.Aref.sid in
  let common_idx =
    match Nest.loop_at_level nest cand.Aref.sid common with
    | Some li -> Some li.Nest.loop.index
    | None -> None
  in
  let part_dims =
    Align_level.partitioned_array_dims d.Decisions.env cand.Aref.base
  in
  let traverses_common =
    match common_idx with
    | None -> false
    | Some idx ->
        List.exists
          (fun dim ->
            match List.nth_opt cand.Aref.subs dim with
            | Some sub -> (
                match
                  Affine.of_subscript d.Decisions.prog ~indices sub
                with
                | Some a -> Affine.coeff a idx <> 0
                | None -> false)
            | None -> false)
          part_dims
  in
  if traverses_common then 1 else 0

(* Pick the best candidate from a list (leftmost among top scores). *)
let pick_best (d : Decisions.t) ~(def_sid : Ast.stmt_id)
    (cands : Aref.t list) : Aref.t option =
  let scored =
    List.map (fun c -> (candidate_score d ~def_sid c, c)) cands
  in
  List.fold_left
    (fun acc (score, c) ->
      match acc with
      | Some (best_score, _) when best_score >= score -> acc
      | _ -> Some (score, c))
    None scored
  |> Option.map snd

(* ------------------------------------------------------------------ *)
(* Inner-loop communication veto                                       *)
(* ------------------------------------------------------------------ *)

(* Would aligning the definition made by [s] with [target] leave
   communication inside the privatization loop (level [priv_level]) for
   some rhs reference of [s]? *)
let consumer_causes_inner_comm (d : Decisions.t) (s : Ast.stmt)
    ~(target : Aref.t) ~(priv_level : int) : bool =
  let prog = d.Decisions.prog in
  let target_spec = Decisions.owner_spec d target in
  Consumer.classify_refs prog s
  |> List.exists (fun ((r : Aref.t), role) ->
         match role with
         | Consumer.R_value when not (Consumer.skip_ref d r) ->
             let p = Decisions.owner_spec d r in
             let rels = Ownership.relate p target_spec in
             if Ownership.no_comm rels then false
             else begin
               let placement =
                 Vectorize.placement_level d.Decisions.deps ~data:r
                   ~consumer_subs:target.Aref.subs
               in
               placement >= priv_level
             end
         | _ -> false)

(* ------------------------------------------------------------------ *)
(* Consumer selection                                                  *)
(* ------------------------------------------------------------------ *)

type consumer_choice =
  | C_dummy  (** the dummy replicated reference; traversal stops *)
  | C_ref of Aref.t
  | C_none

(* Resolve a candidate that is a privatizable scalar: recursively decide
   its mapping, then use its alignment target (paper §2.2). *)
let rec resolve_scalar_candidate (d : Decisions.t) visited
    ~(use_sid : Ast.stmt_id) ~(var : string) : Aref.t option =
  match Decisions.def_of_stmt d ~sid:use_sid ~var with
  | None -> None
  | Some def -> (
      determine_mapping d visited def;
      match Decisions.scalar_mapping_of_def d def with
      | Decisions.Priv_aligned { target; _ }
      | Decisions.Priv_reduction { target; _ } ->
          Some target
      | Decisions.Replicated | Decisions.Priv_no_align -> None)

(* Consumer candidate contributed by one reached use. *)
and candidate_of_use (d : Decisions.t) visited (u : Ssa.use_info) :
    consumer_choice =
  let g = d.Decisions.ssa.Ssa.cfg in
  match Cfg.sid_of_node g u.Ssa.use_node with
  | None -> C_none
  | Some use_sid -> (
      (* the CFG is built from [d.prog]: its node holds the statement *)
      match Cfg.stmt_of_node g u.Ssa.use_node with
      | None -> C_none
      | Some use_stmt -> (
          let roles =
            Consumer.classify_refs d.Decisions.prog use_stmt
            |> List.filter_map (fun ((r : Aref.t), role) ->
                   if
                     Aref.is_scalar r
                     && String.equal r.Aref.base u.Ssa.use_var
                   then Some role
                   else None)
          in
          let is_broadcast_role = function
            | Consumer.R_bound | Consumer.R_lhs_sub -> true
            | Consumer.R_cond ->
                not (Decisions.ctrl_privatized d use_sid)
            | Consumer.R_sub_of outer ->
                (* broadcast needed when the subscripted reference itself
                   requires communication (paper Fig. 2) *)
                let outer_owner = Decisions.owner_spec d outer in
                let guard = Decisions.guard_spec d use_stmt in
                not (Ownership.no_comm (Ownership.relate outer_owner guard))
            | Consumer.R_value -> false
          in
          if List.exists is_broadcast_role roles then C_dummy
          else begin
            (* ordinary value use: candidate is the statement's
               computation-partition reference *)
            let cand =
              match use_stmt.node with
              | Ast.Assign (Ast.LArr (a, subs), _) ->
                  Some { Aref.sid = use_sid; base = a; subs }
              | Ast.Assign (Ast.LVar v, _) ->
                  resolve_scalar_candidate d visited ~use_sid ~var:v
              | Ast.If (_, t, _e) when Decisions.ctrl_privatized d use_sid
                -> (
                  (* predicate of a privatized If: the owner executing the
                     control-dependent statements *)
                  match t with
                  | st :: _ -> Consumer.partition_ref d st
                  | [] -> None)
              | Ast.If _ | Ast.Do _ | Ast.Exit _ | Ast.Cycle _ -> None
            in
            match cand with
            | Some c
              when Ownership.is_partitioned_spec (Decisions.owner_spec d c)
              ->
                C_ref c
            | Some _ | None -> C_none
          end))

(* Select the consumer alignment target for [def] (paper: traverse
   reached uses, dummy replicated wins and stops, ignore replicated
   consumers, prefer common-loop-traversing partitioned references). *)
and select_consumer (d : Decisions.t) visited (def : Ssa.def_id)
    ~(def_sid : Ast.stmt_id) : consumer_choice =
  let uses = Ssa.reached_uses d.Decisions.ssa def in
  (* collect all candidates unless a dummy use appears *)
  let candidates = ref [] in
  let dummy = ref false in
  List.iter
    (fun u ->
      if not !dummy then
        match candidate_of_use d visited u with
        | C_dummy -> dummy := true
        | C_ref c -> candidates := c :: !candidates
        | C_none -> ())
    uses;
  if !dummy then C_dummy
  else
    match pick_best d ~def_sid (List.rev !candidates) with
    | Some c -> C_ref c
    | None -> C_none

(* Select a partitioned producer reference on the defining statement. *)
and select_producer (d : Decisions.t) (s : Ast.stmt) : Aref.t option =
  let cands =
    Consumer.classify_refs d.Decisions.prog s
    |> List.filter_map (fun ((r : Aref.t), role) ->
           match role with
           | Consumer.R_value
             when (not (Consumer.skip_ref d r))
                  && Ownership.is_partitioned_spec
                       (Decisions.owner_spec d r) ->
               Some r
           | _ -> None)
  in
  pick_best d ~def_sid:s.sid cands

(* ------------------------------------------------------------------ *)
(* DetermineMapping (paper Fig. 3)                                     *)
(* ------------------------------------------------------------------ *)

and determine_mapping (d : Decisions.t) (visited : (Ssa.def_id, unit) Hashtbl.t)
    (def : Ssa.def_id) : unit =
  if Hashtbl.mem visited def || Decisions.mem_scalar_mapping d def then
    (* already decided — possibly through the consistency propagation of
       another definition sharing a reached use; re-deciding could break
       the one-mapping-per-use guarantee *)
    ()
  else begin
    Hashtbl.replace visited def ();
    match stmt_of_def d def with
    | None -> ()
    | Some s -> (
        let var = Ssa.def_var d.Decisions.ssa def in
        (* variables involved in reductions (accumulators and maxloc
           location companions) are mapped exclusively by Reduction_map;
           leaving them out here keeps the "Default" (reduction mapping
           disabled) configuration faithfully replicated *)
        let is_reduction_acc =
          List.exists
            (fun (r : Reduction.red) ->
              String.equal r.Reduction.var var
              || List.mem_assoc var r.Reduction.loc_vars)
            d.Decisions.reductions
        in
        if is_reduction_acc then ()
        else
          match
            Privatizable.innermost_privatizable_loop d.Decisions.priv ~def
          with
          | None -> () (* not privatizable: stays Replicated *)
          | Some li -> (
              let priv_level = li.Nest.level in
              let rhs_replicated = is_rhs_replicated d s in
              let unique = Privatizable.is_unique_def d.Decisions.priv ~def in
              if rhs_replicated && unique then
                Decisions.push_no_align d def;
              let align_ref =
                if d.Decisions.options.Decisions.force_producer_alignment
                then
                  (* Table 1's "Producer Alignment" compiler: always align
                     with a partitioned reference of the defining
                     statement *)
                  select_producer d s
                else
                  match select_consumer d visited def ~def_sid:s.sid with
                  | C_dummy -> None
                  | C_ref c ->
                      if
                        (not rhs_replicated)
                        && consumer_causes_inner_comm d s ~target:c
                             ~priv_level
                      then select_producer d s
                      else Some c
                  | C_none ->
                      if not rhs_replicated then select_producer d s
                      else None
              in
              match align_ref with
              | Some target
                when Align_level.align_level d.Decisions.env
                       d.Decisions.nest target
                     <= priv_level ->
                  let m =
                    Decisions.Priv_aligned { target; level = priv_level }
                  in
                  Log.debug (fun f ->
                      f "def of %s at s%d: %a" var s.sid
                        Decisions.pp_scalar_mapping m);
                  mark_alignment ~within:li.Nest.loop_sid d def m
              | Some _ | None -> ()))
  end

(* Record the mapping on every reaching definition of every reached use
   — transitively: definitions connected through shared uses form one
   equivalence class, and the whole class must carry one mapping (the
   paper's consistency requirement: "given a use of a scalar variable,
   all reaching definitions are given an identical mapping"). *)
and mark_alignment ?within (d : Decisions.t) (def : Ssa.def_id)
    (m : Decisions.scalar_mapping) : unit =
  let cls : (Ssa.def_id, unit) Hashtbl.t = Hashtbl.create 8 in
  let entry_reached = ref false in
  let outside_scope = ref false in
  let check_scope rd =
    match within with
    | None -> ()
    | Some loop_sid -> (
        match Ssa.def_node d.Decisions.ssa rd with
        | Some node -> (
            match Cfg.sid_of_node d.Decisions.ssa.Ssa.cfg node with
            | Some sid ->
                if not (Nest.loop_encloses d.Decisions.nest ~loop_sid sid)
                then
                  (* a reaching definition lives outside the loop in which
                     the alignment is valid: the class cannot be aligned *)
                  outside_scope := true
            | None -> outside_scope := true)
        | None -> outside_scope := true)
  in
  check_scope def;
  let work = Queue.create () in
  Queue.add def work;
  Hashtbl.replace cls def ();
  while not (Queue.is_empty work) do
    let cur = Queue.pop work in
    List.iter
      (fun (u : Ssa.use_info) ->
        List.iter
          (fun rd ->
            match d.Decisions.ssa.Ssa.defs.(rd) with
            | Ssa.Node_def _ when not (Hashtbl.mem cls rd) ->
                Hashtbl.replace cls rd ();
                check_scope rd;
                Queue.add rd work
            | Ssa.Entry_def _ ->
                (* the program's initial (replicated) value also reaches
                   this use: aligning the class would be inconsistent
                   with it, so the whole class stays replicated *)
                entry_reached := true
            | Ssa.Node_def _ | Ssa.Phi _ -> ())
          (Ssa.reaching_defs d.Decisions.ssa ~node:u.Ssa.use_node
             ~var:u.Ssa.use_var))
      (Ssa.reached_uses d.Decisions.ssa cur)
  done;
  if (not !entry_reached) && not !outside_scope then
    Hashtbl.iter (fun rd () -> Decisions.set_scalar_mapping d rd m) cls

(* ------------------------------------------------------------------ *)
(* Pass driver                                                         *)
(* ------------------------------------------------------------------ *)

(** Run the scalar mapping pass: every scalar definition in program
    order, then the deferred no-alignment examination. *)
let run (d : Decisions.t) : unit =
  let visited : (Ssa.def_id, unit) Hashtbl.t = Hashtbl.create 32 in
  Ast.iter_program
    (fun s ->
      match s.node with
      | Ast.Assign (Ast.LVar v, _) -> (
          match Decisions.def_of_stmt d ~sid:s.sid ~var:v with
          | Some def -> determine_mapping d visited def
          | None -> ())
      | _ -> ())
    d.Decisions.prog;
  (* NoAlignExam: if all rhs data on the statement is still replicated,
     privatize without alignment (paper §2.2) *)
  List.iter
    (fun def ->
      match stmt_of_def d def with
      | Some s when is_rhs_replicated d s ->
          mark_alignment d def Decisions.Priv_no_align
      | Some _ | None -> ())
    (Decisions.no_align_deferred d)
