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
    conservatively a dependence.

    {!build} derives, once per program, every loop's bounds and every
    assignment's subscripts as affine forms over nesting levels.  A
    query then numbers the read's indices by level, and the write's
    deeper indices apart from them, instead of re-deriving and renaming
    the forms by name. *)

open Hpf_lang

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* An affine form over the indices of one statement's enclosing loops:
   [coef.(level)] multiplies the index of the loop at [level], 0-based
   from the outermost; a level past the array's end has coefficient 0. *)
type form = { const : int; coef : int array }

(* A loop's bounds over the indices of the loops around it; [None]
   when not affine, and both [None] unless the step is 1. *)
type bounds = { lo : form option; hi : form option }

(* The loops around a statement, outermost first: their indices and
   bounds. *)
type nest_forms = { indices : string array; bounds : bounds array }

type forms = {
  inside : (Ast.stmt_id, nest_forms) Hashtbl.t;
      (** per loop: the loops around a statement of its body (the loop
          itself and those enclosing it) *)
  lhs : (Ast.stmt_id, form option list) Hashtbl.t;
      (** per array assignment: its subscripts *)
}

type t = { prog : Ast.program; nest : Nest.t; forms : forms }

exception Not_affine

let coef_at (f : form) k = if k < Array.length f.coef then f.coef.(k) else 0
let is_constant (f : form) = Array.for_all (fun c -> c = 0) f.coef
let constant c = { const = c; coef = [||] }

(* [x * a + y * b] *)
let combine x (a : form) y (b : form) : form =
  let coef = Array.make (max (Array.length a.coef) (Array.length b.coef)) 0 in
  for k = 0 to Array.length coef - 1 do
    coef.(k) <- (x * coef_at a k) + (y * coef_at b k)
  done;
  { const = (x * a.const) + (y * b.const); coef }

(* The index at level [k] alone. *)
let index_form k =
  let coef = Array.make (k + 1) 0 in
  coef.(k) <- 1;
  { const = 0; coef }

(* 0-based level of [v] among [indices], -1 when it is none of them:
   the first when [first], else the last. *)
let rec first_level (indices : string array) v k =
  if k >= Array.length indices then -1
  else if String.equal indices.(k) v then k
  else first_level indices v (k + 1)

let rec last_level (indices : string array) v k =
  if k < 0 then -1
  else if String.equal indices.(k) v then k
  else last_level indices v (k - 1)

let level ~first indices v =
  if first then first_level indices v 0
  else last_level indices v (Array.length indices - 1)

(* The form of [e] over [indices], read as {!Affine.of_subscript}
   reads it: an index is a variable, at its first level when [first],
   else its last, a parameter is a constant, and a product, quotient or
   intrinsic is affine only as {!Affine.of_expr} allows. *)
let form_of (prog : Ast.program) (indices : string array) ~(first : bool)
    (e : Ast.expr) : form option =
  let rec go (e : Ast.expr) : form =
    match e with
    | Int n -> constant n
    | Var v -> (
        let k = level ~first indices v in
        if k >= 0 then index_form k
        else
          match Ast.param_value prog v with
          | Some c -> constant c
          | None -> raise Not_affine)
    | Bin (Add, a, b) ->
        let a = go a in
        combine 1 a 1 (go b)
    | Bin (Sub, a, b) ->
        let a = go a in
        combine 1 a (-1) (go b)
    | Bin (Mul, a, b) ->
        let a = go a in
        let b = go b in
        if is_constant a then combine a.const b 0 b
        else if is_constant b then combine b.const a 0 a
        else raise Not_affine
    | Bin (Div, a, b) ->
        let a = go a in
        let b = go b in
        if is_constant a && is_constant b && b.const <> 0
           && a.const mod b.const = 0
        then constant (a.const / b.const)
        else raise Not_affine
    | Un (Neg, a) -> combine (-1) (go a) 0 (constant 0)
    | Intrin (op, a, b) -> (
        let a = go a in
        let b = go b in
        match (op, is_constant a && is_constant b) with
        | Min2, true -> constant (min a.const b.const)
        | Max2, true -> constant (max a.const b.const)
        | Mod2, true when b.const <> 0 -> constant (a.const mod b.const)
        | _ -> raise Not_affine)
    | Real _ | Bool _ | Arr _ | Bin _ | Un _ -> raise Not_affine
  in
  match go e with f -> Some f | exception Not_affine -> None

(* The forms of subscripts over [indices]. *)
let subs_forms (prog : Ast.program) (indices : string array) subs :
    form option list =
  List.map (form_of prog indices ~first:true) subs

let no_loops = { indices = [||]; bounds = [||] }

(* The loops around statement [sid], from the forms of its innermost
   loop. *)
let loops_around nest inside (sid : Ast.stmt_id) : nest_forms =
  let rec innermost = function
    | [] -> no_loops
    | [ (li : Nest.loop_info) ] -> Hashtbl.find inside li.Nest.loop_sid
    | _ :: tl -> innermost tl
  in
  innermost (Nest.enclosing_loops nest sid)

(* Each loop's forms extend those of the loop around it, so the nest
   is walked in preorder. *)
let build (prog : Ast.program) (nest : Nest.t) : t =
  let inside = Hashtbl.create 16 in
  let around = loops_around nest inside in
  List.iter
    (fun (li : Nest.loop_info) ->
      let outer = around li.Nest.loop_sid in
      let aff = form_of prog outer.indices ~first:false in
      let b =
        match Ast.const_int_opt prog li.loop.step with
        | Some 1 -> { lo = aff li.loop.lo; hi = aff li.loop.hi }
        | _ -> { lo = None; hi = None }
      in
      Hashtbl.replace inside li.Nest.loop_sid
        {
          indices = Array.append outer.indices [| li.loop.index |];
          bounds = Array.append outer.bounds [| b |];
        })
    nest.Nest.loops;
  let lhs = Hashtbl.create 64 in
  Hashtbl.iter
    (fun sid (s : Ast.stmt) ->
      match s.Ast.node with
      | Assign (LArr (_, subs), _) ->
          let indices = (around sid).indices in
          (* outside every loop, no write index lists it *)
          if indices <> [||] then
            Hashtbl.replace lhs sid (subs_forms prog indices subs)
      | Assign (LVar _, _) | If _ | Do _ | Exit _ | Cycle _ -> ())
    nest.Nest.stmts;
  { prog; nest; forms = { inside; lhs } }

let around (t : t) = loops_around t.nest t.forms.inside

(** Context for a reference. *)
type ref_ctx = {
  sid : Ast.stmt_id;
  base : string;
  subs : Ast.expr list;
}

(* One query's variables: the read's indices are [0 .. dr-1] by level;
   a write index shared with the read ([level < shared_level]) is the
   read's index of that name, any other is renamed apart as [dr + level].
   The difference of two subscripts, and its bounds as loop bounds are
   substituted in, live in coefficient arrays over these ids.  The
   interval substitutes the write's loops innermost first, then the
   read's: their bounds may mention outer indices. *)
let may_conflict_forms ~(shared_level : int) (w : nest_forms)
    (w_subs : form option list) (r : nest_forms) (r_subs : form option list) :
    bool =
  let dr = Array.length r.indices and dw = Array.length w.indices in
  let w_id =
    Array.init dw (fun k ->
        let renamed = dr + k in
        if k >= shared_level then renamed
        else
          let j = ref renamed in
          for i = dr - 1 downto 0 do
            if String.equal r.indices.(i) w.indices.(k) then j := i
          done;
          !j)
  in
  let nv = dr + dw in
  let lo = Array.make nv 0 and hi = Array.make nv 0 in
  let is_zero a = Array.for_all (fun c -> c = 0) a in
  (* substitute one loop's bound for variable [v] in [f], [use_lo]
     for a lower bound of [f]: false when the bound is unknown *)
  let sub_one (f : int array) (const : int ref) ~use_lo ~v ~(b : bounds)
      ~(id : int -> int) : bool =
    let c = f.(v) in
    if c = 0 then true
    else
      match if c > 0 = use_lo then b.lo else b.hi with
      | None -> false
      | Some bf ->
          f.(v) <- 0;
          const := !const + (c * bf.const);
          Array.iteri (fun p cp -> f.(id p) <- f.(id p) + (c * cp)) bf.coef;
          true
  in
  let interval const0 : (int * int) option =
    let lo_c = ref const0 and hi_c = ref const0 in
    let step ~v ~b ~id =
      let l = sub_one lo lo_c ~use_lo:true ~v ~b ~id in
      let h = sub_one hi hi_c ~use_lo:false ~v ~b ~id in
      l && h
    in
    let w_var p = w_id.(p) in
    let rec writes k =
      k < 0 || (step ~v:w_id.(k) ~b:w.bounds.(k) ~id:w_var && writes (k - 1))
    in
    let rec reads k =
      k < 0 || (step ~v:k ~b:r.bounds.(k) ~id:Fun.id && reads (k - 1))
    in
    if writes (dw - 1) && reads (dr - 1) && is_zero lo && is_zero hi then
      Some (!lo_c, !hi_c)
    else None
  in
  let may_equal (fw : form) (fr : form) =
    Array.fill lo 0 nv 0;
    Array.iteri (fun p c -> lo.(w_id.(p)) <- lo.(w_id.(p)) + c) fw.coef;
    Array.iteri (fun p c -> lo.(p) <- lo.(p) - c) fr.coef;
    let const = fw.const - fr.const in
    if is_zero lo then const = 0
    else begin
      (* GCD test *)
      let gc = Array.fold_left gcd 0 lo in
      if gc <> 0 && const mod gc <> 0 then false
      else begin
        Array.blit lo 0 hi 0 nv;
        match interval const with
        | Some (l, h) -> l <= 0 && 0 <= h
        | None -> true
      end
    end
  in
  List.for_all2
    (fun ws rs ->
      match (ws, rs) with
      | Some fw, Some fr -> may_equal fw fr
      | _ -> true)
    w_subs r_subs

(** May the write reference and the read reference touch a common
    element?  [shared_level] gives the number of outermost loops whose
    index is {e common} to both references (same iteration): typically
    the loops enclosing the hoisting loop.  Deeper indices of the write
    are renamed apart from the read's. *)
let may_conflict ?(shared_level = 0) (t : t) (w : ref_ctx) (r : ref_ctx) :
    bool =
  if not (String.equal w.base r.base) then false
  else if List.length w.subs <> List.length r.subs then true
  else
    let wf = around t w.sid and rf = around t r.sid in
    may_conflict_forms ~shared_level wf
      (subs_forms t.prog wf.indices w.subs)
      rf
      (subs_forms t.prog rf.indices r.subs)

(** Is there a possible flow of values from writes of [r.base] performed
    inside loop [li] to the read [r] (also inside [li])?  Used to decide
    whether communication for [r] may be vectorized out of that loop.
    Loops enclosing [li] contribute shared (un-renamed) indices.  Only
    the loop's writes of [r.base] are tested, from the nest's write index
    in program order, stopping at the first that may conflict; any write
    of a scalar base feeds the read.  The writes' forms come from
    {!build}; the read's are derived once per call. *)
let write_feeds_read_in_loop (t : t) (li : Nest.loop_info) (r : ref_ctx) :
    bool =
  match Nest.writes_in t.nest li r.base with
  | [] -> false
  | writes ->
      let shared_level = li.Nest.level - 1 in
      let rf = around t r.sid in
      let r_subs = subs_forms t.prog rf.indices r.subs in
      List.exists
        (fun (s : Ast.stmt) ->
          match s.node with
          | Assign (LArr (_, subs), _) ->
              List.length subs <> List.length r.subs
              ||
              may_conflict_forms ~shared_level (around t s.sid)
                (Hashtbl.find t.forms.lhs s.sid)
                rf r_subs
          | Assign (LVar _, _) -> true
          | If _ | Do _ | Exit _ | Cycle _ -> false)
        writes
