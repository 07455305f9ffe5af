(** Concrete processor sets of the lowered program's owner lines,
    compiled against a run's memory layout.

    The lowering ({!Phpf_core.Lower_spmd}) resolves every ownership
    chain and computation-partitioning guard into {!Phpf_ir.Sir} places
    and predicates whose only dynamic part is a subscript expression.
    Here each place and predicate is compiled once per run: its
    subscripts become slot-resolved closures ({!Eval}) read from memory
    at every instance, so even non-affine ones (pivot indices and the
    like) resolve exactly, and the result is a closed-form {!Pid_set.t}:
    no cartesian expansion, ascending linear ids.  Each compiled guard
    owns its result: it refills one rectangle at every evaluation, so
    evaluating a guard allocates nothing beyond a coordinate that moved
    (and the merged list of a [P_union] whose members differ).  The executor
    ({!Spmd_interp}) and the timing simulator ({!Trace_sim}) both
    evaluate the Sir's guards through this module, over the layout
    {!layout} builds. *)

open Hpf_lang
open Hpf_mapping
module Sir = Phpf_ir.Sir

(* Every scalar name the lowered program reads or writes beyond its
   source: mirrored and prefix indices, crossed indices (the merge pass
   introduces fresh ones), transferred and reduced scalars, and the
   variables of embedded subscripts and bounds. *)
let layout (sir : Sir.program) : Memory.layout =
  let names = ref [] and indices = ref [] in
  let name v = names := v :: !names in
  let expr e = Ast.iter_expr (function Ast.Var v -> name v | _ -> ()) e in
  let place (pl : Sir.place) =
    Array.iter
      (function
        | Sir.C_affine { sub; _ } -> expr sub
        | Sir.C_all | Sir.C_fixed _ -> ())
      pl
  in
  let pred = function
    | Sir.P_all -> ()
    | Sir.P_place pl -> place pl
    | Sir.P_union pls -> List.iter place pls
  in
  let dests = function Sir.D_all -> () | Sir.D_pred p -> pred p in
  let data = function
    | Sir.X_scalar { var; owner } ->
        name var;
        place owner
    | Sir.X_elem { subs; owner; _ } ->
        List.iter expr subs;
        place owner
  in
  List.iter
    (fun (o : Sir.stmt_ops) ->
      List.iter name o.Sir.mirror;
      List.iter
        (function Sir.R_mark v -> name v | Sir.R_combine _ -> ())
        o.Sir.red_steps;
      List.iter
        (fun (op : Sir.comm_op) ->
          match op.Sir.xfer with
          | Sir.Reduce_xfer -> ()
          | Sir.Elem_xfer { data = d; dests = ds } ->
              data d;
              dests ds
          | Sir.Whole_xfer { dests = ds; _ } -> dests ds
          | Sir.Block_xfer { data = d; dests = ds; crossed; prefix_vars } ->
              data d;
              dests ds;
              List.iter name prefix_vars;
              List.iter
                (fun (lp : Sir.loop_desc) ->
                  indices := lp.Sir.index :: !indices;
                  expr lp.Sir.lo;
                  expr lp.Sir.hi;
                  expr lp.Sir.step)
                crossed)
        o.Sir.comms;
      match o.Sir.exec with
      | Sir.Control { computes } -> pred computes
      | Sir.Guarded_assign { lhs; rhs; computes } ->
          (match lhs with
          | Ast.LVar x -> name x
          | Ast.LArr (_, subs) -> List.iter expr subs);
          expr rhs;
          pred computes
      | Sir.Loop_head { index; lo } ->
          indices := index :: !indices;
          expr lo)
    (Sir.all_stmt_ops sir);
  Array.iter
    (fun (r : Sir.reduce) -> List.iter name (r.Sir.rvar :: r.Sir.loc_vars))
    sir.Sir.reductions;
  Memory.layout ~names:(List.rev !names) ~indices:(List.rev !indices)
    sir.Sir.source

(* The subscripted coordinates of an owner line, in grid-dimension
   order: each evaluates its subscript from memory and hands the owner
   coordinate to [store g c]. *)
let affine_coords (l : Memory.layout) (pl : Sir.place)
    (store : int -> int -> unit) : (Memory.t -> unit) array =
  Array.to_list pl
  |> List.mapi (fun g c ->
         match c with
         | Sir.C_affine { fmt; nprocs; stride; offset; dim_lo; sub } ->
             let i = Eval.compile_int l sub in
             Some
               (fun m ->
                 store g
                   (Dist.owner_coord fmt ~nprocs
                      ((stride * i m) + offset - dim_lo)))
         | Sir.C_all | Sir.C_fixed _ -> None)
  |> List.filter_map Fun.id |> Array.of_list

let run_all (cs : ('a -> unit) array) (x : 'a) : unit =
  for k = 0 to Array.length cs - 1 do
    (Array.unsafe_get cs k) x
  done

(* Store coordinate [c] of grid dimension [g] into a guard's [dims]
   buffer.  The boxed [D_one] is replaced only when the coordinate
   moves, so a guard re-evaluated inside one owner block allocates
   nothing. *)
let store_dim (dims : Pid_set.dim array) (g : int) (c : int) : unit =
  match Array.unsafe_get dims g with
  | Pid_set.D_one c' when c' = c -> ()
  | Pid_set.D_one _ | Pid_set.D_all -> dims.(g) <- Pid_set.D_one c

(* Each fixed/affine coordinate pins one grid dimension, each [C_all]
   spans its axis.  The guard owns one rectangle whose [dims] it
   refills at every evaluation; a line with no subscript is one set for
   the whole run. *)
let place (l : Memory.layout) (grid : Grid.t) (pl : Sir.place) :
    Pid_set.t Eval.code =
  let dims =
    Array.map
      (function
        | Sir.C_fixed c -> Pid_set.D_one c
        | Sir.C_affine _ | Sir.C_all -> Pid_set.D_all)
      pl
  in
  let set = Pid_set.of_dims grid dims in
  let cs = affine_coords l pl (store_dim dims) in
  if Array.length cs = 0 then fun _ -> set
  else
    fun m ->
      run_all cs m;
      set

(* The lowest pid of an owner line: its [C_all] coordinates at 0. *)
let place_first (l : Memory.layout) (grid : Grid.t) (pl : Sir.place) :
    int Eval.code =
  let coords =
    Array.map
      (function Sir.C_fixed c -> c | Sir.C_affine _ | Sir.C_all -> 0)
      pl
  in
  let cs = affine_coords l pl (fun g c -> coords.(g) <- c) in
  fun m ->
    run_all cs m;
    Grid.linearize grid coords

(* [P_union] is the union of the member places, every processor when
   empty. *)
let pred (l : Memory.layout) (grid : Grid.t) (p : Sir.pred) :
    Pid_set.t Eval.code =
  match p with
  | Sir.P_all ->
      let all = Pid_set.all grid in
      fun _ -> all
  | Sir.P_place pl -> place l grid pl
  | Sir.P_union pls ->
      let cs = Array.of_list (List.map (place l grid) pls) in
      let all = Pid_set.all grid and none = Pid_set.of_list grid [] in
      fun m ->
        let union = ref none in
        for k = 0 to Array.length cs - 1 do
          union := Pid_set.union !union (cs.(k) m)
        done;
        if Pid_set.is_empty !union then all else !union

let eplace_set (grid : Grid.t) (ep : Sir.eplace) : int array -> Pid_set.t =
  let dims =
    Array.map
      (function
        | Sir.E_fixed c -> Pid_set.D_one c
        | Sir.E_dim _ | Sir.E_all -> Pid_set.D_all)
      ep
  in
  let set = Pid_set.of_dims grid dims in
  let cs =
    Array.to_list ep
    |> List.mapi (fun g e ->
           match e with
           | Sir.E_dim { array_dim; fmt; nprocs; stride; offset; dim_lo } ->
               Some
                 (fun (idx : int array) ->
                   store_dim dims g
                     (Dist.owner_coord fmt ~nprocs
                        ((stride * idx.(array_dim)) + offset - dim_lo)))
           | Sir.E_fixed _ | Sir.E_all -> None)
    |> List.filter_map Fun.id |> Array.of_list
  in
  fun idx ->
    run_all cs idx;
    set
