(** Loop-level placement of communication (message vectorization).

    A communication for a read reference is hoisted outward as long as

    - no write inside the loop being crossed produces values the read may
      consume (a true dependence pins the communication inside), and
    - every subscript of the moved data and of its destination is
      well defined outside the loop: affine subscripts vectorize (the
      messages aggregate over the loop index), while a subscript
      containing a non-affine value pins the communication inside the
      loop where that value varies (its [VarLevel], cf. paper Fig. 2/4).

    The paper's mapping algorithm consults exactly this computation for
    its "alignment with the consumer leads to inner-loop communication"
    veto, which is what makes the cost model "realistic ... taking into
    account the placement of communication" (paper §1). *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping

(** Innermost level below which the subscripts force the communication to
    stay: 0 for affine subscripts, [VarLevel] for non-affine ones. *)
let subscript_constraint (prog : Ast.program) (nest : Nest.t)
    ~(sid : Ast.stmt_id) (subs : Ast.expr list) : int =
  let indices = Nest.enclosing_indices nest sid in
  List.fold_left
    (fun acc sub ->
      match Affine.of_subscript prog ~indices sub with
      | Some _ -> acc
      | None ->
          let vl =
            List.fold_left
              (fun a v -> max a (Align_level.var_level prog nest ~sid v))
              0 (Ast.expr_vars sub)
          in
          max acc vl)
    0 subs

(** Placement level for communicating [data] to a consumer whose
    reference has subscripts [consumer_subs] (empty for scalars or the
    dummy replicated consumer).  Returns the loop level the communication
    sits just inside (0 = fully hoisted). *)
let placement_level (deps : Depend.t) ~(data : Aref.t)
    ~(consumer_subs : Ast.expr list) : int =
  let prog = deps.Depend.prog and nest = deps.Depend.nest in
  let sid = data.Aref.sid in
  let loops = Nest.enclosing_loops nest sid in
  let stmt_level = List.length loops in
  let constr =
    max
      (subscript_constraint prog nest ~sid data.Aref.subs)
      (subscript_constraint prog nest ~sid consumer_subs)
  in
  let dref =
    { Depend.sid; base = data.Aref.base; subs = data.Aref.subs }
  in
  (* walk outward from the innermost loop *)
  let rec hoist lv =
    if lv = 0 then 0
    else if constr >= lv then lv
    else begin
      match List.nth_opt loops (lv - 1) with
      | None -> lv
      | Some li ->
          if Depend.write_feeds_read_in_loop deps li dref then lv
          else hoist (lv - 1)
    end
  in
  hoist stmt_level

(** Loop-index variables over which a vectorized message for [data]
    aggregates elements: the indices appearing in the data's subscripts,
    minus [exclude] (for shifts, the index that drives the shifted
    dimension — along it only the boundary overlap moves). *)
let aggregation_vars ~(data : Aref.t) ~(exclude : string list) :
    string list =
  List.concat_map Ast.expr_vars data.Aref.subs
  |> List.sort_uniq String.compare
  |> List.filter (fun v -> not (List.mem v exclude))

(** Elements moved per execution of the communication at [placement]:
    the product of the trips of the crossed loops whose index is in
    [vars] (crossing a loop that does not enlarge the message is free). *)
let elems_per_instance (prog : Ast.program) (nest : Nest.t)
    ~(data : Aref.t) ~(vars : string list) ~(placement : int) : int =
  let loops = Nest.enclosing_loops nest data.Aref.sid in
  List.fold_left
    (fun acc (li : Nest.loop_info) ->
      if li.level > placement && List.mem li.loop.index vars then
        acc * Trips.trip prog li.loop
      else acc)
    1 loops

(** Number of times the communication executes. *)
let instances (prog : Ast.program) (nest : Nest.t) ~(data : Aref.t)
    ~(placement : int) : int =
  Trips.iterations_at_level prog nest ~sid:data.Aref.sid placement
