(** [VarLevel], [SubscriptAlignLevel] and [AlignLevel] (paper §2.2, Fig. 4).

    [VarLevel(s)] is the innermost loop nesting level in which subscript
    [s] varies in value.  [SubscriptAlignLevel(s)] is [VarLevel(s)] when
    [s] is an affine function of loop indices, and [VarLevel(s) + 1]
    otherwise — the nesting level of the outermost loop throughout which
    the subscript's value is well defined.  [AlignLevel(r)] is the maximum
    of the [SubscriptAlignLevel]s over the subscripts appearing in
    {e partitioned} dimensions of reference [r]; an alignment with [r] is
    valid only inside the loop at that level.

    Under partial privatization (paper §3.2) only the grid dimensions in
    which the array is being privatized are considered, which lowers the
    [AlignLevel] (Fig. 6: [rsd(1,i,j,k)] has level 1 instead of 2). *)

open Hpf_lang
open Hpf_analysis

(** Innermost level (within the loops enclosing [sid]) at which variable
    [v] varies: its own loop level if a loop index, else the level of the
    deepest enclosing loop whose body assigns [v]; 0 if it never varies. *)
let var_level (prog : Ast.program) (nest : Nest.t) ~(sid : Ast.stmt_id)
    (v : string) : int =
  if Ast.param_value prog v <> None then 0
  else begin
    let idx_level = Nest.index_level nest sid v in
    if idx_level > 0 then idx_level
    else begin
      (* deepest enclosing loop containing an assignment to v *)
      List.fold_left
        (fun acc li ->
          if Nest.writes_in nest li v <> [] then max acc li.Nest.level
          else acc)
        0
        (Nest.enclosing_loops nest sid)
    end
  end

(** [SubscriptAlignLevel] of one subscript expression at statement [sid]. *)
let subscript_align_level (prog : Ast.program) (nest : Nest.t)
    ~(sid : Ast.stmt_id) (sub : Ast.expr) : int =
  let indices = Nest.enclosing_indices nest sid in
  let vl =
    List.fold_left
      (fun acc v -> max acc (var_level prog nest ~sid v))
      0 (Ast.expr_vars sub)
  in
  match Affine.of_subscript prog ~indices sub with
  | Some _ -> vl
  | None -> vl + 1

(** Array dimensions of [base] that are partitioned, i.e. appear as the
    selecting dimension of a [Mapped] binding.  When [grid_dims] is given,
    only bindings on those grid dimensions count (partial
    privatization). *)
let partitioned_array_dims ?(grid_dims : int list option)
    (env : Layout.env) (base : string) : int list =
  let l = Layout.layout_of env base in
  let out = ref [] in
  Array.iteri
    (fun g b ->
      let considered =
        match grid_dims with None -> true | Some ds -> List.mem g ds
      in
      match b with
      | Layout.Mapped m when considered ->
          if not (List.mem m.array_dim !out) then out := m.array_dim :: !out
      | Layout.Mapped _ | Layout.Repl | Layout.Fixed _ -> ())
    l.bindings;
  List.sort compare !out

(** [AlignLevel] of reference [r]: max [SubscriptAlignLevel] over the
    subscripts in partitioned dimensions (0 when none are partitioned —
    alignment is then valid everywhere). *)
let align_level ?grid_dims (env : Layout.env) (nest : Nest.t)
    (r : Aref.t) : int =
  let dims = partitioned_array_dims ?grid_dims env r.Aref.base in
  List.fold_left
    (fun acc d ->
      match List.nth_opt r.Aref.subs d with
      | Some sub ->
          max acc (subscript_align_level env.Layout.prog nest ~sid:r.Aref.sid sub)
      | None -> acc)
    0 dims
