(** Data-dependence tests between array references.

    Used by communication placement ({!Hpf_comm.Vectorize}): a
    communication for a read reference can be hoisted out of a loop only
    when no write inside that loop produces values the read consumes
    (a loop-carried or loop-independent true dependence).  The writes
    come from the nest's per-loop write index ({!Nest.writes_in}), built
    once with the nest, so a query tests only the writes of the read's
    base.

    The per-dimension test handles triangular nests: loop bounds are kept
    as affine forms over outer indices ([do j = k+1, n]), indices of
    loops {e shared} by both references (outer to the hoisting loop) are
    not renamed apart, and the subscript-difference is bounded by
    interval substitution from the innermost variable outward.  A GCD
    test covers the strided case; anything not disproved is
    conservatively a dependence. *)

open Hpf_lang

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(** Affine bounds of a loop index over the enclosing indices, when
    available. *)
type var_bounds = {
  lo : Affine.t option;
  hi : Affine.t option;
}

(* Bounds of each loop index around statement [sid], innermost first.
   Each bound may reference outer indices (triangular loops). *)
let bounds_env (prog : Ast.program) (nest : Nest.t) (sid : Ast.stmt_id)
    ~(rename : string -> string) ~(renamed_from : int) :
    (string * var_bounds) list =
  let loops = Nest.enclosing_loops nest sid in
  List.mapi
    (fun k (li : Nest.loop_info) ->
      (* outer indices visible in this loop's bounds *)
      let outer =
        List.filteri (fun k' _ -> k' < k) loops
        |> List.map (fun (l : Nest.loop_info) -> l.loop.index)
      in
      let name_of v =
        (* bounds written in terms of outer indices, applying the same
           renaming that was applied to those indices *)
        let pos = ref (-1) in
        List.iteri (fun k' x -> if String.equal x v then pos := k') outer;
        if !pos >= 0 && !pos >= renamed_from then rename v else v
      in
      let aff e =
        match
          Affine.of_expr
            ~is_index:(fun v -> List.mem v outer)
            ~const_of:(fun v -> Ast.param_value prog v)
            e
        with
        | Some a ->
            Some
              {
                Affine.const = a.Affine.const;
                terms =
                  List.map (fun (v, c) -> (name_of v, c)) a.Affine.terms;
              }
        | None -> None
      in
      let idx_name = if k >= renamed_from then rename li.loop.index else li.loop.index in
      let step_one =
        match Ast.const_int_opt prog li.loop.step with
        | Some 1 -> true
        | _ -> false
      in
      if step_one then (idx_name, { lo = aff li.loop.lo; hi = aff li.loop.hi })
      else (idx_name, { lo = None; hi = None }))
    loops

(* Interval of an affine form, substituting bounded variables from the
   end of [env] (innermost) outward.  Returns (lo, hi) as constants when
   fully resolvable. *)
let interval (d : Affine.t) (env : (string * var_bounds) list) :
    (int * int) option =
  (* substitute variables in reverse declaration order: innermost loops
     first, since their bounds may mention outer indices *)
  let rec subst (lo : Affine.t) (hi : Affine.t) = function
    | [] ->
        if Affine.is_constant lo && Affine.is_constant hi then
          Some (lo.Affine.const, hi.Affine.const)
        else None
    | (v, b) :: rest ->
        let sub_one (f : Affine.t) ~(use_lo : bool) : Affine.t option =
          let c = Affine.coeff f v in
          if c = 0 then Some f
          else begin
            let bound = if (c > 0) = use_lo then b.lo else b.hi in
            match bound with
            | None -> None
            | Some bf ->
                let without =
                  {
                    Affine.const = f.Affine.const;
                    terms =
                      List.filter
                        (fun (x, _) -> not (String.equal x v))
                        f.Affine.terms;
                  }
                in
                Some (Affine.add without (Affine.scale c bf))
          end
        in
        ( match (sub_one lo ~use_lo:true, sub_one hi ~use_lo:false) with
        | Some lo', Some hi' -> subst lo' hi' rest
        | _ -> None )
  in
  subst d d (List.rev env)

(* Can  f = g  have a solution, where f and g are affine over (possibly
   shared) index variables, with a bounds environment? *)
let may_equal ~(env : (string * var_bounds) list) (f : Affine.t)
    (g : Affine.t) : bool =
  let d = Affine.sub f g in
  if Affine.is_constant d then d.Affine.const = 0
  else begin
    (* GCD test *)
    let coeffs = List.map snd d.Affine.terms in
    let gc = List.fold_left gcd 0 coeffs in
    if gc <> 0 && d.Affine.const mod gc <> 0 then false
    else begin
      match interval d env with
      | Some (lo, hi) -> lo <= 0 && 0 <= hi
      | None -> true
    end
  end

(** Context for a reference. *)
type ref_ctx = {
  sid : Ast.stmt_id;
  base : string;
  subs : Ast.expr list;
}

(** May the write reference and the read reference touch a common
    element?  [shared_level] gives the number of outermost loops whose
    index is {e common} to both references (same iteration): typically
    the loops enclosing the hoisting loop.  Deeper indices of the write
    are renamed apart from the read's. *)
let may_conflict ?(shared_level = 0) (prog : Ast.program) (nest : Nest.t)
    (w : ref_ctx) (r : ref_ctx) : bool =
  if not (String.equal w.base r.base) then false
  else if List.length w.subs <> List.length r.subs then true
  else begin
    let rename v = v ^ "'" in
    let w_indices = Nest.enclosing_indices nest w.sid in
    let r_indices = Nest.enclosing_indices nest r.sid in
    let w_aff sub =
      match Affine.of_subscript prog ~indices:w_indices sub with
      | Some a ->
          (* rename write indices deeper than the shared prefix *)
          Some
            {
              Affine.const = a.Affine.const;
              terms =
                List.map
                  (fun (v, c) ->
                    let lvl =
                      let rec pos k = function
                        | [] -> -1
                        | x :: _ when String.equal x v -> k
                        | _ :: tl -> pos (k + 1) tl
                      in
                      pos 0 w_indices
                    in
                    if lvl >= shared_level then (rename v, c) else (v, c))
                  a.Affine.terms;
            }
      | None -> None
    in
    let r_aff sub = Affine.of_subscript prog ~indices:r_indices sub in
    let env =
      bounds_env prog nest r.sid ~rename ~renamed_from:max_int
      @ bounds_env prog nest w.sid ~rename ~renamed_from:shared_level
    in
    List.for_all2
      (fun ws rs ->
        match (w_aff ws, r_aff rs) with
        | Some fa, Some fb -> may_equal ~env fa fb
        | _ -> true)
      w.subs r.subs
  end

(** Is there a possible flow of values from writes of [r.base] performed
    inside loop [li] to the read [r] (also inside [li])?  Used to decide
    whether communication for [r] may be vectorized out of that loop.
    Loops enclosing [li] contribute shared (un-renamed) indices.  Only
    the loop's writes of [r.base] are tested, from the nest's write index
    in program order, stopping at the first that may conflict; any write
    of a scalar base feeds the read. *)
let write_feeds_read_in_loop (prog : Ast.program) (nest : Nest.t)
    (li : Nest.loop_info) (r : ref_ctx) : bool =
  let shared_level = li.Nest.level - 1 in
  List.exists
    (fun (s : Ast.stmt) ->
      match s.node with
      | Assign (LArr (a, subs), _) ->
          may_conflict ~shared_level prog nest { sid = s.sid; base = a; subs } r
      | Assign (LVar _, _) -> true
      | If _ | Do _ | Exit _ | Cycle _ -> false)
    (Nest.writes_in nest li r.base)
