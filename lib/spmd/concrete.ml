(** Concrete ownership and executing-processor sets under a set of
    privatization decisions, evaluated against a runtime memory.

    This is the runtime counterpart of {!Phpf_core.Decisions.owner_spec}:
    where the symbolic spec pushes affine forms through distribution
    formats, here actual subscript values are read from memory, so even
    non-affine subscripts (pivot indices and the like) resolve exactly. *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping
open Phpf_core

(* Per-grid-dimension concrete coordinate set. *)
type dims = Ownership.concrete_dim array

let all_dims (env : Layout.env) : dims =
  Array.make (Grid.rank env.Layout.grid) Ownership.C_all

(* Owner of reference [r] under layout bindings, with subscripts
   evaluated in [m].  Grid dims in [skip_dims] come out [C_all] without
   evaluating their subscripts (a widened reduction mapping may reference
   an index that is out of scope at the statement). *)
let layout_owner ?(skip_dims = []) ?(widen_var = fun _ -> false)
    (env : Layout.env) (m : Memory.t) (base : string)
    (subs : Ast.expr list) : dims =
  let l = Layout.layout_of env base in
  Array.mapi
    (fun g b ->
      if List.mem g skip_dims then Ownership.C_all
      else
        match b with
        | Layout.Repl -> Ownership.C_all
        | Layout.Fixed c -> Ownership.C_one c
        | Layout.Mapped mp -> (
            match List.nth_opt subs mp.array_dim with
            | None -> Ownership.C_all
            | Some sub ->
                if List.exists widen_var (Ast.expr_vars sub) then
                  (* the subscript ranges over a loop not currently in
                     scope: the owner set is the union over its
                     iterations *)
                  Ownership.C_all
                else begin
                  let i = Eval.int_expr m sub in
                  let pos = (mp.stride * i) + mp.offset - mp.dim_lo in
                  Ownership.C_one
                    (Dist.owner_coord mp.fmt ~nprocs:mp.nprocs pos)
                end))
    l.Layout.bindings

let rec owner (d : Decisions.t) (m : Memory.t) ?(as_def = false)
    ?(skip_dims = []) ?(widen_var = fun _ -> false) ?(depth = 0)
    (r : Aref.t) : dims =
  let env = d.Decisions.env in
  if depth > 8 then all_dims env
  else if Aref.is_scalar r then begin
    if Ast.is_array d.Decisions.prog r.Aref.base then
      layout_owner ~skip_dims ~widen_var env m r.Aref.base []
    else if
      Nest.is_enclosing_index d.Decisions.nest r.Aref.sid r.Aref.base
    then all_dims env
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
      | Decisions.Replicated | Decisions.Priv_no_align -> all_dims env
      | Decisions.Priv_aligned { target; _ } ->
          owner d m ~skip_dims ~widen_var ~depth:(depth + 1) target
      | Decisions.Priv_reduction { target; repl_grid_dims; _ } ->
          (* widened dims are never evaluated: their subscripts may be
             out of scope at this statement *)
          owner d m ~widen_var
            ~skip_dims:(repl_grid_dims @ skip_dims)
            ~depth:(depth + 1) target
    end
  end
  else begin
    match Decisions.array_mapping_at d ~sid:r.Aref.sid ~base:r.Aref.base with
    | None -> layout_owner ~skip_dims ~widen_var env m r.Aref.base r.Aref.subs
    | Some (_, Decisions.Arr_priv { target = Some t }) ->
        owner d m ~skip_dims ~widen_var ~depth:(depth + 1) t
    | Some (_, Decisions.Arr_priv { target = None }) -> all_dims env
    | Some (_, Decisions.Arr_partial_priv { target; priv_grid_dims }) ->
        let own =
          layout_owner ~widen_var
            ~skip_dims:(priv_grid_dims @ skip_dims)
            env m r.Aref.base r.Aref.subs
        in
        let tgt =
          let non_priv =
            List.init (Hpf_mapping.Grid.rank env.Layout.grid) Fun.id
            |> List.filter (fun g -> not (List.mem g priv_grid_dims))
          in
          owner d m ~widen_var
            ~skip_dims:(non_priv @ skip_dims)
            ~depth:(depth + 1) target
        in
        Array.mapi
          (fun g c -> if List.mem g priv_grid_dims then tgt.(g) else c)
          own
  end

(** Closed-form processor set of per-dimension coordinates: no cartesian
    expansion, O(rank) construction. *)
let set_of_dims (env : Layout.env) (dims : dims) : Pid_set.t =
  Pid_set.of_dims env.Layout.grid
    (Array.map
       (function
         | Ownership.C_one c -> Pid_set.D_one c
         | Ownership.C_all -> Pid_set.D_all)
       dims)

(** Processors executing statement [s] in the current iteration ([m]
    holds the loop indices), as a closed-form {!Pid_set.t}: no cartesian
    expansion.  [G_union] resolves to the union over the sibling
    statements of the innermost enclosing loop.  Iteration order of the
    result is ascending linear ids. *)
let executing_set (d : Decisions.t) (m : Memory.t) (s : Ast.stmt) :
    Pid_set.t =
  let env = d.Decisions.env in
  match Decisions.guard_of_stmt d s with
  | Decisions.G_all -> Pid_set.all env.Layout.grid
  | Decisions.G_ref r -> set_of_dims env (owner d m ~as_def:true r)
  | Decisions.G_ref_repl (r, repl) ->
      set_of_dims env (owner d m ~skip_dims:repl r)
  | Decisions.G_union -> (
      match Nest.innermost_loop d.Decisions.nest s.sid with
      | None -> Pid_set.all env.Layout.grid
      | Some li ->
          let sibs =
            Decisions.all_stmts_in li.Nest.loop.body
            |> List.filter (fun (st : Ast.stmt) ->
                   st.sid <> s.sid
                   &&
                   match Decisions.guard_of_stmt d st with
                   | Decisions.G_union -> false
                   | _ -> true)
          in
          let scope = Nest.enclosing_indices d.Decisions.nest s.sid in
          let union =
            List.fold_left
              (fun acc (st : Ast.stmt) ->
                let widen_var v =
                  Nest.is_enclosing_index d.Decisions.nest st.sid v
                  && not (List.mem v scope)
                in
                let set =
                  match Decisions.guard_of_stmt d st with
                  | Decisions.G_all -> Pid_set.all env.Layout.grid
                  | Decisions.G_ref r ->
                      set_of_dims env (owner d m ~as_def:true ~widen_var r)
                  | Decisions.G_ref_repl (r, repl) ->
                      set_of_dims env
                        (owner d m ~widen_var ~skip_dims:repl r)
                  | Decisions.G_union -> Pid_set.of_list env.Layout.grid []
                in
                Pid_set.union acc set)
              (Pid_set.of_list env.Layout.grid [])
              sibs
          in
          if Pid_set.is_empty union then Pid_set.all env.Layout.grid
          else union)
