(** Whole-program communication analysis.

    Walks every statement and, for each read reference, compares the
    owner of the data with the owner of its consumer (both supplied by an
    {!oracle} so that the privatization decisions of {!Phpf_core} are
    reflected), classifies the communication, and places it with
    {!Vectorize}.

    Recognized reductions additionally emit a combining ([Reduce])
    collective placed just outside the accumulating loop. *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping

(** Where a reference's value is needed. *)
type consumer = {
  cref : Aref.t option;
      (** the consumer reference ([None] = the dummy replicated
          reference: the value is needed by all processors) *)
  spec : Ownership.spec;
}

type oracle = {
  owner_of : Aref.t -> Ownership.spec;
      (** owner of the data named by a reference, after privatized
          mapping decisions *)
  stmt_refs : Ast.stmt -> (Aref.t * consumer) list;
      (** the read references of a statement that require communication
          analysis, each with its consumer (paper Fig. 2 rules applied by
          the caller); references that need no analysis (loop indices,
          parameters) are omitted *)
}

(** Classify a communication from producer/consumer owner specs and their
    per-dimension relations. *)
let classify ~(producer : Ownership.spec) ~(consumer : Ownership.spec)
    (rels : Ownership.dim_relation array) : Comm.kind option =
  if Ownership.no_comm rels then None
  else begin
    let has p = Array.exists p rels in
    let unknown =
      Array.exists (function Ownership.O_unknown -> true | _ -> false)
    in
    if has (function Ownership.To_all -> true | _ -> false) then
      Some Comm.Broadcast
    else if
      Array.for_all
        (function
          | Ownership.Same | Ownership.Local | Ownership.Shift _ -> true
          | Ownership.To_all | Ownership.Irregular -> false)
        rels
    then begin
      let delta =
        Array.fold_left
          (fun acc r ->
            match r with Ownership.Shift d when acc = 0 -> d | _ -> acc)
          0 rels
      in
      Some (Comm.Shift delta)
    end
    else if unknown producer || unknown consumer then Some Comm.Gather
    else Some Comm.Point_to_point
  end

(** Communication (if any) required to bring [r]'s value to [consumer]. *)
let comm_for_ref (deps : Depend.t) (oracle : oracle) (r : Aref.t)
    (consumer : consumer) : Comm.t option =
  let prog = deps.Depend.prog and nest = deps.Depend.nest in
  let p = oracle.owner_of r in
  let rels = Ownership.relate p consumer.spec in
  match classify ~producer:p ~consumer:consumer.spec rels with
  | None -> None
  | Some kind ->
      let consumer_subs =
        match consumer.cref with Some c -> c.Aref.subs | None -> []
      in
      let placement =
        Vectorize.placement_level deps ~data:r ~consumer_subs
      in
      let stmt_level = Nest.level nest r.Aref.sid in
      (* along a shifted dimension only the boundary overlap moves: the
         index variables driving Shift dimensions do not aggregate *)
      let exclude, scale, boundary_fraction =
        match kind with
        | Comm.Shift delta ->
            let vars = ref [] in
            (* crossing probability: a message fires when any shifted
               dimension crosses a processor boundary *)
            let stay = ref 1.0 in
            Array.iteri
              (fun g rel ->
                match (rel, p.(g)) with
                | Ownership.Shift d, Ownership.O_affine { pos; fmt; _ } ->
                    vars := Affine.vars pos @ !vars;
                    let f =
                      match fmt with
                      | Hpf_mapping.Dist.Block bsize when bsize > 0 ->
                          Float.min 1.0
                            (float_of_int (abs d) /. float_of_int bsize)
                      | Hpf_mapping.Dist.Cyclic
                      | Hpf_mapping.Dist.Block_cyclic _ ->
                          1.0
                      | Hpf_mapping.Dist.Block _ -> 1.0
                    in
                    stay := !stay *. (1.0 -. f)
                | _ -> ())
              rels;
            (!vars, max 1 (abs delta), 1.0 -. !stay)
        | _ -> ([], 1, 1.0)
      in
      let agg_vars = Vectorize.aggregation_vars ~data:r ~exclude in
      (* when the loops driving the shifted dimension are all crossed by
         vectorization, the boundary elements move unconditionally (the
         fraction applies only to per-iteration messages) *)
      let boundary_fraction =
        if
          exclude <> []
          && List.for_all
               (fun v -> Nest.index_level nest r.Aref.sid v > placement)
               exclude
        then 1.0
        else boundary_fraction
      in
      Some
        {
          Comm.data = r;
          kind;
          stmt_level;
          placement_level = placement;
          elems_per_instance =
            scale
            * Vectorize.elems_per_instance prog nest ~data:r ~vars:agg_vars
                ~placement;
          instances = Vectorize.instances prog nest ~data:r ~placement;
          group = None;
          agg_vars;
          scale;
          boundary_fraction;
        }

(** Bases ever assigned in the program.  Initial data is globally
    available (every per-processor memory is seeded identically), so a
    base outside this set can never diverge between processors: its
    consumers always hold a valid local copy and no movement is
    required, whatever the owner/consumer relation says. *)
let written_bases (prog : Ast.program) : (string, unit) Hashtbl.t =
  let w = Hashtbl.create 16 in
  Ast.iter_program
    (fun s ->
      match s.Ast.node with
      | Ast.Assign (Ast.LVar v, _) -> Hashtbl.replace w v ()
      | Ast.Assign (Ast.LArr (a, _), _) -> Hashtbl.replace w a ()
      | _ -> ())
    prog;
  w

(** Analyze the whole program.  [red_group] gives the number of
    processors a recognized reduction's combine spans (1 disables the
    collective: the partial result is already where it is needed).
    [elide_unwritten] skips movement of never-assigned bases (see
    {!written_bases}); off by default — it reproduces phpf's verbatim
    schedule for the paper-faithful compiler versions. *)
let analyze (deps : Depend.t) (oracle : oracle)
    ?(reductions : Reduction.red list = [])
    ?(red_group : Reduction.red -> int = fun _ -> 0)
    ?(elide_unwritten = false) () : Comm.t list =
  let prog = deps.Depend.prog and nest = deps.Depend.nest in
  let written = if elide_unwritten then written_bases prog else Hashtbl.create 0 in
  let moves (r : Aref.t) =
    (not elide_unwritten) || Hashtbl.mem written r.Aref.base
  in
  let out = ref [] in
  Ast.iter_program
    (fun s ->
      (* a statement that reads one reference twice needs it once *)
      let emitted = ref [] in
      List.iter
        (fun (r, consumer) ->
          if moves r then
            match comm_for_ref deps oracle r consumer with
            | Some c when not (List.mem c !emitted) ->
                emitted := c :: !emitted;
                out := c :: !out
            | Some _ | None -> ())
        (oracle.stmt_refs s))
    prog;
  (* reduction collectives *)
  List.iter
    (fun (red : Reduction.red) ->
      let group = red_group red in
      if group <> 1 then begin
        let loop_level = Nest.level nest red.loop_sid in
        let data = Aref.scalar red.stmt_sid red.var in
        let instances =
          Trips.iterations_at_level prog nest ~sid:red.loop_sid loop_level
        in
        out :=
          {
            Comm.data;
            kind = Comm.Reduce;
            stmt_level = loop_level + 1;
            placement_level = loop_level;
            elems_per_instance = 1 + List.length red.loc_vars;
            instances;
            group = (if group = 0 then None else Some group);
            agg_vars = [];
            scale = 1 + List.length red.loc_vars;
            boundary_fraction = 1.0;
          }
          :: !out
      end)
    reductions;
  List.rev !out
