(** Lowering of a compiled program to the explicit SPMD IR
    ({!Phpf_ir.Sir}).

    Everything the legacy AST-walking interpreter used to re-derive at
    runtime — ownership chains, computation-partitioning guards (of
    assignments and of privatized control statements), communication
    destinations, message-aggregation plans, reduction combine lines,
    the validation strategy — is resolved here, once, into data.  The
    only dynamic residue is subscript evaluation: owner coordinates come
    out as [C_affine] leaves holding the subscript expression, which the
    executor evaluates against the lockstep reference memory.

    [strict] turns silent fallbacks into diagnostics (the E0801–E0806
    range): the compiler pass lowers strictly, while the fidelity
    audit's re-lowering stays permissive so a deliberately corrupted
    schedule still lowers to exactly the data movement it describes. *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping
module Sir = Phpf_ir.Sir
module Comm = Hpf_comm.Comm

type ctx = { d : Decisions.t; prog : Ast.program; strict : bool }

let fail ~code fmt =
  Format.kasprintf
    (fun msg -> raise (Diag.Fatal [ Diag.error ~code msg ]))
    fmt

let all_place (env : Layout.env) : Sir.place =
  Array.make (Grid.rank env.Layout.grid) Sir.C_all

(* Owner line of [base(subs)] under its layout bindings.  The subscript
   stays symbolic inside [C_affine]; {!Hpf_spmd.Concrete} evaluates it
   at run time.  Grid dims in [skip_dims] come out [C_all] without
   looking at their subscripts. *)
let flatten_layout ?(skip_dims = []) ?(widen_var = fun _ -> false)
    (env : Layout.env) (base : string) (subs : Ast.expr list) : Sir.place =
  let l = Layout.layout_of env base in
  Array.mapi
    (fun g b ->
      if List.mem g skip_dims then Sir.C_all
      else
        match b with
        | Layout.Repl -> Sir.C_all
        | Layout.Fixed c -> Sir.C_fixed c
        | Layout.Mapped mp -> (
            match List.nth_opt subs mp.array_dim with
            | None -> Sir.C_all
            | Some sub ->
                if List.exists widen_var (Ast.expr_vars sub) then
                  (* the subscript ranges over a loop not in scope: the
                     owner set is the union over its iterations *)
                  Sir.C_all
                else
                  Sir.C_affine
                    {
                      fmt = mp.fmt;
                      nprocs = mp.nprocs;
                      stride = mp.stride;
                      offset = mp.offset;
                      dim_lo = mp.dim_lo;
                      sub;
                    }))
    l.Layout.bindings

(* Per-element owner recipe (whole-array transfers, validation). *)
let element_place (env : Layout.env) (base : string) : Sir.eplace =
  let l = Layout.layout_of env base in
  Array.map
    (function
      | Layout.Repl -> Sir.E_all
      | Layout.Fixed c -> Sir.E_fixed c
      | Layout.Mapped mp ->
          Sir.E_dim
            {
              array_dim = mp.array_dim;
              fmt = mp.fmt;
              nprocs = mp.nprocs;
              stride = mp.stride;
              offset = mp.offset;
              dim_lo = mp.dim_lo;
            })
    l.Layout.bindings

(* Chase the privatization / alignment chain of a reference down to
   layout bindings.  This is the library's one derivation of who owns a
   reference; the run-time chase in the test oracles is its independent
   reference.  [as_def] selects the definition-side mapping of a scalar
   lhs. *)
let rec flatten_owner (cx : ctx) ?(as_def = false) ?(skip_dims = [])
    ?(widen_var = fun _ -> false) ?(depth = 0) (r : Aref.t) : Sir.place =
  let d = cx.d in
  let env = d.Decisions.env in
  if depth > 8 then
    if cx.strict then
      fail ~code:"E0801"
        "cannot lower reference %s at s%d: alignment chain deeper than 8 \
         (cyclic privatization targets?)"
        r.Aref.base r.Aref.sid
    else all_place env
  else if Aref.is_scalar r then begin
    if Ast.is_array d.Decisions.prog r.Aref.base then
      flatten_layout ~skip_dims ~widen_var env r.Aref.base []
    else if Nest.is_enclosing_index d.Decisions.nest r.Aref.sid r.Aref.base
    then all_place env
    else begin
      let mapping =
        if as_def then
          match
            Decisions.def_of_stmt d ~sid:r.Aref.sid ~var:r.Aref.base
          with
          | Some def -> Decisions.scalar_mapping_of_def d def
          | None -> Decisions.Replicated
        else
          Decisions.scalar_mapping_of_use d ~sid:r.Aref.sid
            ~var:r.Aref.base
      in
      match mapping with
      | Decisions.Replicated | Decisions.Priv_no_align -> all_place env
      | Decisions.Priv_aligned { target; _ } ->
          flatten_owner cx ~skip_dims ~widen_var ~depth:(depth + 1) target
      | Decisions.Priv_reduction { target; repl_grid_dims; _ } ->
          (* widened dims are never evaluated: their subscripts may be
             out of scope at this statement *)
          flatten_owner cx ~widen_var
            ~skip_dims:(repl_grid_dims @ skip_dims)
            ~depth:(depth + 1) target
    end
  end
  else begin
    match
      Decisions.array_mapping_at d ~sid:r.Aref.sid ~base:r.Aref.base
    with
    | None -> flatten_layout ~skip_dims ~widen_var env r.Aref.base r.Aref.subs
    | Some (_, Decisions.Arr_priv { target = Some t }) ->
        flatten_owner cx ~skip_dims ~widen_var ~depth:(depth + 1) t
    | Some (_, Decisions.Arr_priv { target = None }) -> all_place env
    | Some (_, Decisions.Arr_partial_priv { target; priv_grid_dims }) ->
        let own =
          flatten_layout ~widen_var
            ~skip_dims:(priv_grid_dims @ skip_dims)
            env r.Aref.base r.Aref.subs
        in
        let tgt =
          let non_priv =
            List.init (Grid.rank env.Layout.grid) Fun.id
            |> List.filter (fun g -> not (List.mem g priv_grid_dims))
          in
          flatten_owner cx ~widen_var
            ~skip_dims:(non_priv @ skip_dims)
            ~depth:(depth + 1) target
        in
        Array.mapi
          (fun g c -> if List.mem g priv_grid_dims then tgt.(g) else c)
          own
  end

(* The members of a union guard that no other member strictly covers:
   a strictly covered member selects a subset of its coverer's
   processors at every instance, so the union is unchanged.  Exact
   duplicates (one per co-owned reference) cover each other and stay,
   and the order is kept. *)
let drop_implied (places : Sir.place list) : Sir.place list =
  let covers ~have ~need = Phpf_ir.Sir_dataflow.place_covers ~have ~need in
  List.filter
    (fun p ->
      not
        (List.exists
           (fun q -> covers ~have:q ~need:p && not (covers ~have:p ~need:q))
           places))
    places

(* Computation-partitioning guard of a statement — an assignment or a
   control statement — as a materialized predicate.  [G_union] flattens
   the sibling statements' owner lines, widening a sibling's loop
   indices that are out of scope here to their whole axis; the
   evaluator unions the places per instance. *)
let flatten_guard (cx : ctx) (s : Ast.stmt) : Sir.pred =
  let d = cx.d in
  let env = d.Decisions.env in
  match Decisions.guard_of_stmt d s with
  | Decisions.G_all -> Sir.P_all
  | Decisions.G_ref r -> Sir.P_place (flatten_owner cx ~as_def:true r)
  | Decisions.G_ref_repl (r, repl) ->
      Sir.P_place (flatten_owner cx ~skip_dims:repl r)
  | Decisions.G_union -> (
      match Nest.innermost_loop d.Decisions.nest s.Ast.sid with
      | None -> Sir.P_all
      | Some li ->
          let sibs =
            Decisions.all_stmts_in li.Nest.loop.body
            |> List.filter (fun (st : Ast.stmt) ->
                   st.Ast.sid <> s.Ast.sid
                   &&
                   match Decisions.guard_of_stmt d st with
                   | Decisions.G_union -> false
                   | _ -> true)
          in
          let scope = Nest.enclosing_indices d.Decisions.nest s.Ast.sid in
          let places =
            List.map
              (fun (st : Ast.stmt) ->
                let widen_var v =
                  Nest.is_enclosing_index d.Decisions.nest st.Ast.sid v
                  && not (List.mem v scope)
                in
                match Decisions.guard_of_stmt d st with
                | Decisions.G_all -> all_place env
                | Decisions.G_ref r ->
                    flatten_owner cx ~as_def:true ~widen_var r
                | Decisions.G_ref_repl (r, repl) ->
                    flatten_owner cx ~widen_var ~skip_dims:repl r
                | Decisions.G_union -> assert false (* filtered out *))
              sibs
          in
          Sir.P_union (drop_implied places))

(* --- aggregability (lowering-time decision) ------------------------ *)

(* Is the owner set of [r] an exact function of loop indices and
   parameters?  Mirrors {!flatten_owner}'s recursion; every subscript
   met along the way must be affine in the consumer's enclosing indices,
   so re-evaluating it during region enumeration gives the
   per-iteration answer. *)
let rec owner_chain_affine (d : Decisions.t) ~(indices : string list)
    ~(depth : int) ~(as_def : bool) (r : Aref.t) : bool =
  let prog = d.Decisions.prog in
  let subs_affine () =
    List.for_all
      (fun sub -> Affine.of_subscript prog ~indices sub <> None)
      r.Aref.subs
  in
  if depth > 8 then false
  else if Aref.is_scalar r then
    if Ast.is_array prog r.Aref.base then false
    else if Nest.is_enclosing_index d.Decisions.nest r.Aref.sid r.Aref.base
    then true
    else begin
      let mapping =
        if as_def then
          match Decisions.def_of_stmt d ~sid:r.Aref.sid ~var:r.Aref.base with
          | Some def -> Decisions.scalar_mapping_of_def d def
          | None -> Decisions.Replicated
        else
          Decisions.scalar_mapping_of_use d ~sid:r.Aref.sid ~var:r.Aref.base
      in
      match mapping with
      | Decisions.Replicated | Decisions.Priv_no_align -> true
      | Decisions.Priv_aligned { target; _ }
      | Decisions.Priv_reduction { target; _ } ->
          owner_chain_affine d ~indices ~depth:(depth + 1) ~as_def:false
            target
    end
  else
    match Decisions.array_mapping_at d ~sid:r.Aref.sid ~base:r.Aref.base with
    | None -> subs_affine ()
    | Some (_, Decisions.Arr_priv { target = None }) -> true
    | Some (_, Decisions.Arr_priv { target = Some t }) ->
        owner_chain_affine d ~indices ~depth:(depth + 1) ~as_def:false t
    | Some (_, Decisions.Arr_partial_priv { target; _ }) ->
        subs_affine ()
        && owner_chain_affine d ~indices ~depth:(depth + 1) ~as_def:false
             target

(* Can the consumer's executing set be enumerated exactly?  [G_union]
   unions over sibling statements — too entangled to certify. *)
let guard_enumerable (d : Decisions.t) ~(indices : string list)
    (s : Ast.stmt) : bool =
  match Decisions.guard_of_stmt d s with
  | Decisions.G_all -> true
  | Decisions.G_ref r ->
      owner_chain_affine d ~indices ~depth:0 ~as_def:true r
  | Decisions.G_ref_repl (r, _) ->
      owner_chain_affine d ~indices ~depth:0 ~as_def:false r
  | Decisions.G_union -> false

(* Decide whether a vectorized communication may be shipped as blocks.
   Falls back to [None] (per-element) whenever the crossed region's
   iteration set, owners or destinations cannot be proven identical
   between first-instance enumeration and the actual
   iteration-by-iteration execution. *)
let aggregation_plan (d : Decisions.t) (cm : Comm.t) :
    (Sir.loop_desc list * string list) option =
  let prog = d.Decisions.prog and nest = d.Decisions.nest in
  let data = cm.Comm.data in
  let sid = data.Aref.sid in
  if (not (Comm.vectorized cm)) || cm.Comm.kind = Comm.Reduce then None
  else
    match Nest.find_stmt nest sid with
    | None -> None
    | Some s -> (
        let loops = Nest.enclosing_loops nest sid in
        let placement = cm.Comm.placement_level in
        let crossed =
          List.filter
            (fun (li : Nest.loop_info) -> li.Nest.level > placement)
            loops
        in
        match crossed with
        | [] -> None
        | top :: _ ->
            let indices = Nest.enclosing_indices nest sid in
            (* the consumer must sit under plain [Do]s all the way up to
               the topmost crossed loop: an [If] in between could cut
               iterations the enumeration would still ship *)
            let rec chain_ok cur =
              match Hashtbl.find_opt nest.Nest.parent cur with
              | None -> false
              | Some p -> (
                  p = top.Nest.loop_sid
                  ||
                  match Nest.find_stmt nest p with
                  | Some { Ast.node = Ast.Do _; _ } -> chain_ok p
                  | _ -> false)
            in
            (* [Exit]/[Cycle] anywhere in the region can likewise cut
               iterations after the fact *)
            let no_ctrl =
              let ok = ref true in
              Ast.iter_stmts
                (fun st ->
                  match st.Ast.node with
                  | Ast.Exit _ | Ast.Cycle _ -> ok := false
                  | _ -> ())
                top.Nest.loop.body;
              !ok
            in
            (* a name nothing inside the crossed region writes keeps its
               first-instance value for the whole region *)
            let stable v = not (Nest.written_in nest top v) in
            (* crossed-loop bounds must evaluate to the same values
               during enumeration as at the real loop headers *)
            let bounds_ok =
              List.for_all
                (fun (li : Nest.loop_info) ->
                  List.for_all
                    (fun e ->
                      List.for_all
                        (fun v ->
                          Nest.is_enclosing_index nest li.Nest.loop_sid v
                          || stable v)
                        (Ast.expr_vars e))
                    [ li.Nest.loop.lo; li.Nest.loop.hi; li.Nest.loop.step ])
                crossed
            in
            let data_ok =
              if Aref.is_scalar data then
                (* whole-array refs go through the element-wise path *)
                (not (Ast.is_array prog data.Aref.base))
                && stable data.Aref.base
              else
                List.for_all
                  (fun sub -> Affine.of_subscript prog ~indices sub <> None)
                  data.Aref.subs
            in
            let owners_ok =
              owner_chain_affine d ~indices ~depth:0 ~as_def:false data
            in
            let guard_ok =
              cm.Comm.kind = Comm.Broadcast || guard_enumerable d ~indices s
            in
            if chain_ok sid && no_ctrl && bounds_ok && data_ok && owners_ok
               && guard_ok
            then
              Some
                ( List.map
                    (fun (li : Nest.loop_info) ->
                      {
                        Sir.index = li.Nest.loop.index;
                        lo = li.Nest.loop.lo;
                        hi = li.Nest.loop.hi;
                        step = li.Nest.loop.step;
                      })
                    crossed,
                  List.filter_map
                    (fun (li : Nest.loop_info) ->
                      if li.Nest.level <= placement then
                        Some li.Nest.loop.index
                      else None)
                    loops )
            else None)

(* --- communication lowering ---------------------------------------- *)

let lower_comm (cx : ctx) ~(pos : int) (cm : Comm.t) :
    (Ast.stmt_id * Sir.comm_op) option =
  let d = cx.d in
  let prog = cx.prog in
  let data = cm.Comm.data in
  let sid = data.Aref.sid in
  if
    cx.strict
    && (not (Aref.is_scalar data))
    && not (Ast.is_array prog data.Aref.base)
  then
    fail ~code:"E0804"
      "cannot lower communication of %s(...) at s%d: subscripted reference \
       to an undeclared array"
      data.Aref.base sid;
  match Nest.find_stmt d.Decisions.nest sid with
  | None ->
      if cx.strict then
        fail ~code:"E0802"
          "cannot lower communication of %s: anchor statement s%d does not \
           exist"
          data.Aref.base sid
      else None (* permissive: an anchorless op never fires *)
  | Some s ->
      if cx.strict then begin
        let depth = List.length (Nest.enclosing_loops d.Decisions.nest sid) in
        if cm.Comm.placement_level < 0 || cm.Comm.placement_level > depth
        then
          fail ~code:"E0803"
            "cannot lower communication of %s at s%d: placement level %d \
             outside the statement's nesting depth %d"
            data.Aref.base sid cm.Comm.placement_level depth
      end;
      let dests () : Sir.dests =
        match cm.Comm.kind with
        | Comm.Broadcast -> Sir.D_all
        | _ -> Sir.D_pred (flatten_guard cx s)
      in
      let xdata () : Sir.xdata =
        let owner = flatten_owner cx data in
        if Aref.is_scalar data then
          Sir.X_scalar { var = data.Aref.base; owner }
        else
          Sir.X_elem { base = data.Aref.base; subs = data.Aref.subs; owner }
      in
      let xfer =
        if cm.Comm.kind = Comm.Reduce then Sir.Reduce_xfer
        else
          match aggregation_plan d cm with
          | Some (crossed, prefix_vars) ->
              Sir.Block_xfer
                { data = xdata (); dests = dests (); crossed; prefix_vars }
          | None ->
              if Aref.is_scalar data && Ast.is_array prog data.Aref.base
              then
                Sir.Whole_xfer
                  {
                    base = data.Aref.base;
                    owners = element_place d.Decisions.env data.Aref.base;
                    dests = dests ();
                  }
              else Sir.Elem_xfer { data = xdata (); dests = dests () }
      in
      Some (sid, { Sir.uid = pos; pos; cm; xfer })

(* --- reductions ----------------------------------------------------- *)

(* Combine lines: processors sharing grid coordinates outside
   [repl_dims].  Construction replicates the legacy runtime exactly
   (same hash-table build, same iteration collection, members consed in
   ascending-pid order hence stored descending) so the executor touches
   processors in the identical sequence — fault campaigns stay
   reproducible across the refactor. *)
let lines_of (grid : Grid.t) (repl_dims : int list) : int list list =
  let nprocs = Grid.size grid in
  let lines : (int list, int list) Hashtbl.t = Hashtbl.create 8 in
  for pid = 0 to nprocs - 1 do
    let coords = Grid.coords grid pid in
    let key =
      List.filteri
        (fun g _ -> not (List.mem g repl_dims))
        (Array.to_list coords)
    in
    let cur =
      match Hashtbl.find_opt lines key with Some l -> l | None -> []
    in
    Hashtbl.replace lines key (pid :: cur)
  done;
  let acc = ref [] in
  Hashtbl.iter (fun _ members -> acc := members :: !acc) lines;
  List.rev !acc

let lower_reductions (cx : ctx) :
    Sir.reduce array * (Ast.stmt_id, Sir.red_step list) Hashtbl.t =
  let d = cx.d in
  let grid = d.Decisions.env.Layout.grid in
  let rank = Grid.rank grid in
  let infos =
    List.filter_map
      (fun (red : Reduction.red) ->
        let repl_dims =
          Ssa.defs_of_var d.Decisions.ssa red.Reduction.var
          |> List.find_map (fun def ->
                 match Decisions.scalar_mapping_of_def d def with
                 | Decisions.Priv_reduction { repl_grid_dims; _ } ->
                     Some repl_grid_dims
                 | _ -> None)
        in
        match repl_dims with
        | Some dims when dims <> [] ->
            if cx.strict && List.exists (fun g -> g < 0 || g >= rank) dims
            then
              fail ~code:"E0806"
                "cannot lower reduction of %s: replication dimension \
                 outside the %d-dimensional grid"
                red.Reduction.var rank;
            let acc_sids =
              match Nest.find_stmt d.Decisions.nest red.Reduction.stmt_sid with
              | Some { node = Ast.If (_, t, e); sid; _ } ->
                  sid
                  :: List.map
                       (fun (s : Ast.stmt) -> s.Ast.sid)
                       (Decisions.all_stmts_in (t @ e))
              | Some { sid; _ } -> [ sid ]
              | None ->
                  if cx.strict then
                    fail ~code:"E0805"
                      "cannot lower reduction of %s: accumulating \
                       statement s%d does not exist"
                      red.Reduction.var red.Reduction.stmt_sid
                  else []
            in
            Some (red, acc_sids, dims)
        | _ -> None)
      d.Decisions.reductions
  in
  let reductions =
    Array.of_list
      (List.map
         (fun ((red : Reduction.red), _, dims) ->
           {
             Sir.rvar = red.Reduction.var;
             rop = red.Reduction.op;
             loc_vars = List.map fst red.Reduction.loc_vars;
             repl_dims = dims;
             lines = lines_of grid dims;
           })
         infos)
  in
  (* per-statement steps, in accumulator order (mark wins over combine,
     exactly the legacy bookkeeping) *)
  let steps : (Ast.stmt_id, Sir.red_step list) Hashtbl.t =
    Hashtbl.create 16
  in
  Ast.iter_program
    (fun s ->
      let l =
        List.concat
          (List.mapi
             (fun i ((red : Reduction.red), acc_sids, _) ->
               if List.mem s.Ast.sid acc_sids then
                 [ Sir.R_mark red.Reduction.var ]
               else if
                 List.exists
                   (fun e ->
                     List.mem red.Reduction.var (Ast.expr_vars e))
                   (Ast.own_exprs s)
               then [ Sir.R_combine i ]
               else [])
             infos)
      in
      if l <> [] then Hashtbl.replace steps s.Ast.sid l)
    cx.prog;
  (reductions, steps)

(* --- allocs and validation plan ------------------------------------ *)

let lower_allocs (cx : ctx) : Sir.alloc list =
  let d = cx.d in
  let rank = Grid.rank d.Decisions.env.Layout.grid in
  let check_dims var dims =
    if cx.strict && List.exists (fun g -> g < 0 || g >= rank) dims then
      fail ~code:"E0806"
        "cannot lower privatized storage of %s: grid dimension outside \
         the %d-dimensional grid"
        var rank
  in
  let scalars =
    Decisions.scalar_mappings d
    |> List.map (fun (def, m) ->
           let name = Ssa.def_var d.Decisions.ssa def in
           let mapping =
             match m with
             | Decisions.Replicated -> Sir.A_replicated
             | Decisions.Priv_no_align -> Sir.A_unaligned
             | Decisions.Priv_aligned { target; level } ->
                 Sir.A_aligned { target; level }
             | Decisions.Priv_reduction { target; repl_grid_dims; _ } ->
                 check_dims name repl_grid_dims;
                 Sir.A_reduction { target; repl_dims = repl_grid_dims }
           in
           { Sir.name; mapping })
  in
  let arrays =
    Decisions.array_mappings d
    |> List.map (fun ((name, loop_sid), m) ->
           let mapping =
             match m with
             | Decisions.Arr_priv { target } ->
                 Sir.A_array { target; loop_sid }
             | Decisions.Arr_partial_priv { target; priv_grid_dims } ->
                 check_dims name priv_grid_dims;
                 Sir.A_array_partial
                   { target; priv_dims = priv_grid_dims; loop_sid }
           in
           { Sir.name; mapping })
  in
  scalars @ arrays

let lower_validate_plan (cx : ctx) : Sir.vcheck list =
  let d = cx.d in
  let env = d.Decisions.env in
  (* per-array privatization summary across all loops *)
  let priv_of a = Decisions.array_priv_summary d a in
  List.filter_map
    (fun (decl : Ast.decl) ->
      if decl.Ast.shape = [] then None
      else
        match priv_of decl.Ast.dname with
        | `Full -> Some (Sir.V_skip decl.Ast.dname)
        | `None ->
            Some (Sir.V_owned (decl.Ast.dname, element_place env decl.Ast.dname))
        | `Partial priv_dims ->
            let line =
              element_place env decl.Ast.dname
              |> Array.mapi (fun g e ->
                     if List.mem g priv_dims then Sir.E_all else e)
            in
            Some (Sir.V_line (decl.Ast.dname, line)))
    cx.prog.Ast.decls

(* --- entry point ---------------------------------------------------- *)

(** Lower a compiled program's components to a {!Sir.program}, with
    block transfers for provably aggregable vectorized communications.
    [strict] raises [E0801]–[E0806] diagnostics on unloweable constructs
    instead of dropping them silently. *)
let lower ?(strict = false) ~(prog : Ast.program)
    ~(decisions : Decisions.t) ~(comms : Comm.t list) () : Sir.program =
  let cx = { d = decisions; prog; strict } in
  let env = decisions.Decisions.env in
  let grid = env.Layout.grid in
  (* per-statement comm ops: consed in schedule order, kept reversed —
     the order the legacy runtime fired them in *)
  let comms_of : (Ast.stmt_id, Sir.comm_op list) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iteri
    (fun pos cm ->
      match lower_comm cx ~pos cm with
      | None -> ()
      | Some (sid, op) ->
          let cur =
            match Hashtbl.find_opt comms_of sid with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace comms_of sid (op :: cur))
    comms;
  let reductions, red_steps = lower_reductions cx in
  let nest = decisions.Decisions.nest in
  let stmts : (Ast.stmt_id, Sir.stmt_ops) Hashtbl.t = Hashtbl.create 64 in
  Ast.iter_program
    (fun s ->
      let exec =
        match s.Ast.node with
        | Ast.Assign (lhs, rhs) ->
            Sir.Guarded_assign { lhs; rhs; computes = flatten_guard cx s }
        | Ast.Do dl -> Sir.Loop_head { index = dl.Ast.index; lo = dl.Ast.lo }
        | Ast.If _ | Ast.Exit _ | Ast.Cycle _ ->
            Sir.Control { computes = flatten_guard cx s }
      in
      Hashtbl.replace stmts s.Ast.sid
        {
          Sir.sid = s.Ast.sid;
          mirror = Nest.enclosing_indices nest s.Ast.sid;
          red_steps =
            (match Hashtbl.find_opt red_steps s.Ast.sid with
            | Some l -> l
            | None -> []);
          comms =
            (match Hashtbl.find_opt comms_of s.Ast.sid with
            | Some l -> l
            | None -> []);
          exec;
        })
    prog;
  {
    Sir.source = prog;
    grid;
    nprocs = Grid.size grid;
    allocs = lower_allocs cx;
    reductions;
    stmts;
    validate_plan = lower_validate_plan cx;
    recovery = None;
    opt_applied = [];
  }

(** Convenience wrapper over a {!Compiler.compiled}-shaped component
    triple is provided by {!Compiler} itself (which owns the pass); this
    module stays independent of it to avoid a cycle. *)
