(** Concrete processor sets of the lowered program's owner lines,
    evaluated against a runtime memory.

    The lowering ({!Phpf_core.Lower_spmd}) resolves every ownership
    chain and computation-partitioning guard into {!Phpf_ir.Sir} places
    and predicates whose only dynamic part is a subscript expression.
    Here those subscripts are read from memory, so even non-affine ones
    (pivot indices and the like) resolve exactly, and the result is a
    closed-form {!Pid_set.t}: no cartesian expansion, ascending linear
    ids.  The executor ({!Spmd_interp}) and the timing simulator
    ({!Trace_sim}) both evaluate the Sir's guards through this module. *)

open Hpf_mapping
module Sir = Phpf_ir.Sir

let coord_of (m : Memory.t) = function
  | Sir.C_fixed c -> Some c
  | Sir.C_affine { fmt; nprocs; stride; offset; dim_lo; sub } ->
      let i = Eval.int_expr m sub in
      Some (Dist.owner_coord fmt ~nprocs ((stride * i) + offset - dim_lo))
  | Sir.C_all -> None

(* Each fixed/affine coordinate pins one grid dimension, each [C_all]
   spans its axis. *)
let place_set (grid : Grid.t) (m : Memory.t) (pl : Sir.place) : Pid_set.t =
  Pid_set.of_dims grid
    (Array.map
       (fun c ->
         match coord_of m c with
         | Some c -> Pid_set.D_one c
         | None -> Pid_set.D_all)
       pl)

(* [P_union] is the union of the member places, every processor when
   empty. *)
let pred_set (grid : Grid.t) (m : Memory.t) (p : Sir.pred) : Pid_set.t =
  match p with
  | Sir.P_all -> Pid_set.all grid
  | Sir.P_place pl -> place_set grid m pl
  | Sir.P_union pls ->
      let union =
        List.fold_left
          (fun acc pl -> Pid_set.union acc (place_set grid m pl))
          (Pid_set.of_list grid []) pls
      in
      if Pid_set.is_empty union then Pid_set.all grid else union

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
