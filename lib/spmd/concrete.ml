(** Concrete processor sets of the lowered program's owner lines,
    compiled against a run's memory layout.

    The lowering ({!Phpf_core.Lower_spmd}) resolves every ownership
    chain and computation-partitioning guard into {!Phpf_ir.Sir} places
    and predicates whose only dynamic part is a subscript expression.
    Here each place and predicate is compiled once per run: its
    subscripts become slot-resolved closures ({!Eval}) read from memory
    at every instance, so even non-affine ones (pivot indices and the
    like) resolve exactly, and the result is a closed-form {!Pid_set.t}:
    no cartesian expansion, ascending linear ids.  The executor
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

let coord (l : Memory.layout) (c : Sir.coord) : Pid_set.dim Eval.code =
  match c with
  | Sir.C_fixed c ->
      let d = Pid_set.D_one c in
      fun _ -> d
  | Sir.C_affine { fmt; nprocs; stride; offset; dim_lo; sub } ->
      let i = Eval.compile_int l sub in
      fun m ->
        Pid_set.D_one
          (Dist.owner_coord fmt ~nprocs ((stride * i m) + offset - dim_lo))
  | Sir.C_all -> fun _ -> Pid_set.D_all

(* Each fixed/affine coordinate pins one grid dimension, each [C_all]
   spans its axis; coordinates evaluate in grid-dimension order.  A
   line with no subscript is one set for the whole run. *)
let place (l : Memory.layout) (grid : Grid.t) (pl : Sir.place) :
    Pid_set.t Eval.code =
  if Array.for_all (function Sir.C_affine _ -> false | _ -> true) pl then begin
    let s =
      Pid_set.of_dims grid
        (Array.map
           (function Sir.C_fixed c -> Pid_set.D_one c | _ -> Pid_set.D_all)
           pl)
    in
    fun _ -> s
  end
  else begin
    let cs = Array.map (coord l) pl in
    fun m ->
      let dims = Array.make (Array.length cs) Pid_set.D_all in
      for g = 0 to Array.length cs - 1 do
        dims.(g) <- cs.(g) m
      done;
      Pid_set.of_dims grid dims
  end

(* The lowest pid of an owner line: its [C_all] coordinates at 0. *)
let place_first (l : Memory.layout) (grid : Grid.t) (pl : Sir.place) :
    int Eval.code =
  let cs = Array.map (coord l) pl in
  fun m ->
    let coords = Array.make (Array.length cs) 0 in
    for g = 0 to Array.length cs - 1 do
      coords.(g) <-
        (match cs.(g) m with Pid_set.D_one c -> c | Pid_set.D_all -> 0)
    done;
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
      let cs = List.map (place l grid) pls in
      let all = Pid_set.all grid and none = Pid_set.of_list grid [] in
      fun m ->
        let union =
          List.fold_left (fun acc c -> Pid_set.union acc (c m)) none cs
        in
        if Pid_set.is_empty union then all else union

let eplace_set (grid : Grid.t) (ep : Sir.eplace) (idx : int array) :
    Pid_set.t =
  Pid_set.of_dims grid
    (Array.map
       (function
         | Sir.E_fixed c -> Pid_set.D_one c
         | Sir.E_dim { array_dim; fmt; nprocs; stride; offset; dim_lo } ->
             Pid_set.D_one
               (Dist.owner_coord fmt ~nprocs
                  ((stride * idx.(array_dim)) + offset - dim_lo))
         | Sir.E_all -> Pid_set.D_all)
       ep)
