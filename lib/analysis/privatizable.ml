(** Privatizability tests (paper §2.2 [IsPrivatizable], §3.1).

    A scalar definition [d] inside loop [L] is privatizable with respect
    to [L] when its value neither flows to a use outside [L] nor to a use
    in a {e later iteration} of [L] (no flow across [L]'s back edge).  The
    [NEW] clause of an [INDEPENDENT] directive asserts privatizability of
    the listed variables outright.  Both questions, and [IsUniqueDef]'s,
    are answered from {!Ssa.reached_uses}, which the SSA computes once
    for every scalar definition, so asking them at every enclosing loop
    costs a table read each.

    For arrays, phpf relies on directives: the [NEW] clause, or the weaker
    [INDEPENDENT]-only form (no loop-carried {e value-based} dependences),
    under which any lhs array reference whose subscripts do not involve the
    parallel-loop index contributes memory-based loop-carried dependences
    that only privatization can remove (paper §3.1). *)

open Hpf_lang

type t = {
  prog : Ast.program;
  nest : Nest.t;
  ssa : Ssa.t;
}

let make (prog : Ast.program) (ssa : Ssa.t) : t =
  { prog; nest = Nest.build prog; ssa }

(* CFG nodes of the loop-head statements for loop [loop_sid]. *)
let head_nodes (t : t) (loop_sid : Ast.stmt_id) : int list =
  List.filter
    (fun i ->
      match (Cfg.node t.ssa.Ssa.cfg i).kind with
      | Cfg.Loop_head s -> s.sid = loop_sid
      | _ -> false)
    (Cfg.nodes_of_sid t.ssa.Ssa.cfg loop_sid)

(* Is CFG node [n] textually inside loop [loop_sid]?  The loop's own
   init/head/step/join nodes do not count as inside. *)
let node_inside_loop (t : t) ~(loop_sid : Ast.stmt_id) (n : int) : bool =
  match Cfg.sid_of_node t.ssa.Ssa.cfg n with
  | None -> false
  | Some sid ->
      if sid = loop_sid then false
      else Nest.loop_encloses t.nest ~loop_sid sid

(** Is definition [d] (which must define a scalar inside loop [loop_sid])
    privatizable with respect to that loop?

    Checks the definition's reached uses, read from the table
    {!Ssa.build} computes once per program ({!Ssa.reached_uses}):
    - every reached real use lies inside the loop, and
    - no reached use observes the value across the loop's back edge. *)
let scalar_def_privatizable (t : t) ~(def : Ssa.def_id)
    ~(loop_sid : Ast.stmt_id) : bool =
  let var = Ssa.def_var t.ssa def in
  (* NEW clause assertion *)
  let new_asserted =
    match Nest.find_loop t.nest loop_sid with
    | Some li -> List.mem var li.loop.new_vars
    | None -> false
  in
  if new_asserted then true
  else begin
    let heads = head_nodes t loop_sid in
    let uses = Ssa.reached_uses t.ssa def in
    List.for_all
      (fun (u : Ssa.use_info) ->
        node_inside_loop t ~loop_sid u.use_node
        && not (List.exists (fun h -> List.mem h u.back_edges) heads))
      uses
  end

(** The outermost loop (smallest level) with respect to which [def] is
    privatizable, or [None] when it is not privatizable even w.r.t. its
    innermost enclosing loop.  Returns the loop info. *)
let outermost_privatizable_loop (t : t) ~(def : Ssa.def_id) :
    Nest.loop_info option =
  match Ssa.def_node t.ssa def with
  | None -> None
  | Some node -> (
      match Cfg.sid_of_node t.ssa.Ssa.cfg node with
      | None -> None
      | Some sid ->
          let loops = Nest.enclosing_loops t.nest sid in
          (* outermost first *)
          List.find_opt
            (fun (li : Nest.loop_info) ->
              scalar_def_privatizable t ~def ~loop_sid:li.loop_sid)
            loops)

(** The innermost loop with respect to which [def] is privatizable —
    the loop the mapping algorithm privatizes against, since it maximizes
    the nesting level [l] and therefore admits the most alignment targets
    ([AlignLevel(r) <= l]). *)
let innermost_privatizable_loop (t : t) ~(def : Ssa.def_id) :
    Nest.loop_info option =
  match Ssa.def_node t.ssa def with
  | None -> None
  | Some node -> (
      match Cfg.sid_of_node t.ssa.Ssa.cfg node with
      | None -> None
      | Some sid ->
          List.find_opt
            (fun (li : Nest.loop_info) ->
              scalar_def_privatizable t ~def ~loop_sid:li.loop_sid)
            (List.rev (Nest.enclosing_loops t.nest sid)))

(** Is the scalar definition [d] privatizable w.r.t. its innermost
    enclosing loop? *)
let privatizable_innermost (t : t) ~(def : Ssa.def_id) : bool =
  match Ssa.def_node t.ssa def with
  | None -> false
  | Some node -> (
      match Cfg.sid_of_node t.ssa.Ssa.cfg node with
      | None -> false
      | Some sid -> (
          match Nest.innermost_loop t.nest sid with
          | None -> false
          | Some li -> scalar_def_privatizable t ~def ~loop_sid:li.loop_sid))

(** Is [def] the unique reaching definition of all its reached uses?
    (The [IsUniqueDef] test of paper Fig. 3: required for privatization
    without alignment, so that every reached use sees the privately
    computed value.) *)
let is_unique_def (t : t) ~(def : Ssa.def_id) : bool =
  let uses = Ssa.reached_uses t.ssa def in
  List.for_all
    (fun (u : Ssa.use_info) ->
      match
        Ssa.reaching_defs t.ssa ~node:u.use_node ~var:u.use_var
      with
      | [ d ] -> d = def
      | _ -> false)
    uses

(* ------------------------------------------------------------------ *)
(* Arrays                                                              *)
(* ------------------------------------------------------------------ *)

type array_priv_source =
  | From_new  (** listed in the loop's [NEW] clause *)
  | Inferred  (** inferred from an [INDEPENDENT]-only loop (paper §3.1) *)
  | Auto
      (** proved by the automatic def-before-use analysis ({!Auto_priv},
          the paper's future-work integration) *)

(** Arrays privatizable with respect to loop [li], with the evidence.

    Inference rule (paper §3.1): in a loop asserted [INDEPENDENT] (no true
    loop-carried value dependences), an lhs array reference in which every
    subscript is invariant w.r.t. the parallel loop index (affine in inner
    loop indices only) creates memory-based loop-carried dependences that
    can be eliminated only by privatizing the array. *)
let privatizable_arrays (t : t) (li : Nest.loop_info) :
    (string * array_priv_source) list =
  let explicit =
    List.filter (fun v -> Ast.is_array t.prog v) li.loop.new_vars
    |> List.map (fun v -> (v, From_new))
  in
  let inferred = ref [] in
  if li.loop.independent then begin
    let add v =
      if
        (not (List.mem_assoc v explicit))
        && not (List.mem_assoc v !inferred)
      then inferred := (v, Inferred) :: !inferred
    in
    let loop_index = li.loop.index in
    Ast.iter_stmts
      (fun s ->
        match s.node with
        | Assign (LArr (a, subs), _) ->
            let indices = Nest.enclosing_indices t.nest s.sid in
            let invariant_in_parallel_index =
              List.for_all
                (fun sub ->
                  match Affine.of_subscript t.prog ~indices sub with
                  | Some af -> Affine.coeff af loop_index = 0
                  | None -> false)
                subs
            in
            if invariant_in_parallel_index then add a
        | _ -> ())
      li.loop.body
  end;
  explicit @ List.rev !inferred
