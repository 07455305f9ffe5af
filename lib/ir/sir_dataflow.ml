(** The dataflow core of the [verify-flow] audits, shared with the
    {!Sir_opt} optimizer.

    Two fixpoints over one {!Sir_cfg} graph through the generic {!Flow}
    engine: forward MUST availability of {e delivery facts} (which
    delivered copies are valid where) and backward MAY liveness of
    per-processor copies (whose copies can still be read).  Each
    transfer contributes exactly one delivery fact: a block keeps its
    symbolic subscripts, and only the indices it walks in full whenever
    it ships make it a section, matched by membership.  Liveness counts
    an [IF] condition as a read on the processors that evaluate it, the
    read [verify-flow] requires a transfer for, so [dte] keeps predicate
    transfers.  From those, {!summarize} classifies the transfer ops the
    program could drop without changing any observation:

    - {b dead} ([W0606]): the payload is overwritten or never read on
      any processor before the validity scope ends;
    - {b redundant} ([W0607]): the data is already valid at every
      destination from a dominating delivery, checked against the state
      with the op itself excluded — so every classified op is
      {e individually} deletable.

    {!Phpf_verify.Sir_flow} wraps this module with the
    requirement-derivation ([E0612]) and diagnostic rendering that need
    the full compile record; {!Sir_opt} turns the classified ops into
    deletions: dead ones re-running both fixpoints on a {!prepared}
    context after each rewrite, redundant ones decided against one
    analysis ({!redundant_deletions}) — the last one the dead-op loop
    ran, which its passes share. *)

open Hpf_lang
open Hpf_mapping
module Comm = Hpf_comm.Comm
module Aref = Hpf_analysis.Aref

(* Syntactic coverage of coordinates, places and predicates            *)
(* ------------------------------------------------------------------ *)

(* All Sir predicate forms are pure data (Ast.expr leaves included), so
   structural equality is the exactness baseline; coverage adds the
   C_all / degenerate-dimension widenings. *)

let coord_covers ~(have : Sir.coord) ~(need : Sir.coord) : bool =
  match (have, need) with
  | Sir.C_all, _ -> true
  | _ when have = need -> true
  | Sir.C_fixed c, Sir.C_affine { fmt; nprocs; _ }
  | Sir.C_affine { fmt; nprocs; _ }, Sir.C_fixed c ->
      Dist.constant_coord fmt ~nprocs = Some c
  | _ -> false

let place_covers ~(have : Sir.place) ~(need : Sir.place) : bool =
  Array.length have = Array.length need
  && Array.for_all2 (fun h n -> coord_covers ~have:h ~need:n) have need

let place_is_all (p : Sir.place) = Array.for_all (fun c -> c = Sir.C_all) p

let pred_is_all = function
  | Sir.P_all -> true
  | Sir.P_place p -> place_is_all p
  | Sir.P_union _ -> false

(* An empty evaluated P_union falls back to all processors, so
   member-wise coverage arguments are only safe in the directions
   below: a union as the haver only grows (each member's set is
   contained in the union, and the empty-union fallback is universal);
   a union as the needer is compared structurally. *)
let pred_covers ~(have : Sir.pred) ~(need : Sir.pred) : bool =
  pred_is_all have || have = need
  ||
  match (have, need) with
  | Sir.P_place h, Sir.P_place n -> place_covers ~have:h ~need:n
  | Sir.P_union hs, Sir.P_place n ->
      List.exists (fun h -> place_covers ~have:h ~need:n) hs
  | _ -> false

let dests_covers ~(have : Sir.dests) ~(need : Sir.dests) : bool =
  match (have, need) with
  | Sir.D_all, _ -> true
  | Sir.D_pred p, Sir.D_all -> pred_is_all p
  | Sir.D_pred p, Sir.D_pred q -> pred_covers ~have:p ~need:q

let coord_vars = function
  | Sir.C_all | Sir.C_fixed _ -> []
  | Sir.C_affine { sub; _ } -> Ast.expr_vars sub

let place_vars (p : Sir.place) =
  Array.to_list p |> List.concat_map coord_vars

let pred_vars = function
  | Sir.P_all -> []
  | Sir.P_place p -> place_vars p
  | Sir.P_union ps -> List.concat_map place_vars ps

let dests_vars = function
  | Sir.D_all -> []
  | Sir.D_pred p -> pred_vars p

(* ------------------------------------------------------------------ *)
(* Delivery facts (the forward MUST domain)                            *)
(* ------------------------------------------------------------------ *)

(** The moved datum of a delivery, as a syntactic key.  Subscripts are
    compared structurally: they are evaluated against the lockstep
    reference memory, so equal expressions name equal elements as long
    as no variable they mention has been redefined in between — which
    is exactly what the kill rules enforce. *)
type dkey =
  | K_scalar of string
  | K_whole of string  (** every element of an array *)
  | K_elem of string * Ast.expr list
  | K_section of string * Ast.expr list * Sir.loop_desc list
      (** the elements [base(subs)] as each walked index runs over its
          loop: a block that walks these loops in full whenever it
          ships *)

let key_base = function
  | K_scalar b | K_whole b | K_elem (b, _) | K_section (b, _, _) -> b

(* A section mentions the names its subscripts and its walked bounds
   read, not the walked indices it binds. *)
let key_vars = function
  | K_scalar b | K_whole b -> [ b ]
  | K_elem (b, subs) -> b :: List.concat_map Ast.expr_vars subs
  | K_section (b, subs, walked) ->
      let bound v =
        List.exists (fun (l : Sir.loop_desc) -> l.Sir.index = v) walked
      in
      (b
      :: List.filter (fun v -> not (bound v))
           (List.concat_map Ast.expr_vars subs))
      @ List.concat_map
          (fun (l : Sir.loop_desc) ->
            List.concat_map Ast.expr_vars [ l.Sir.lo; l.Sir.hi; l.Sir.step ])
          walked

(* ------------------------------------------------------------------ *)
(* Constant-offset expression arithmetic                               *)
(* ------------------------------------------------------------------ *)

(** Normalize an expression into a symbolic part and a constant offset:
    [e + c].  [None] as the symbolic part means the expression is the
    pure constant [c]. *)
let split_const (e : Ast.expr) : Ast.expr option * int =
  match e with
  | Ast.Int c -> (None, c)
  | Ast.Bin (Ast.Add, b, Ast.Int c) | Ast.Bin (Ast.Add, Ast.Int c, b) ->
      (Some b, c)
  | Ast.Bin (Ast.Sub, b, Ast.Int c) -> (Some b, -c)
  | _ -> (Some e, 0)

(** Constant difference [e2 - e1] when both share the same symbolic
    part. *)
let const_delta (e1 : Ast.expr) (e2 : Ast.expr) : int option =
  match (split_const e1, split_const e2) with
  | (None, c1), (None, c2) -> Some (c2 - c1)
  | (Some b1, c1), (Some b2, c2) when b1 = b2 -> Some (c2 - c1)
  | _ -> None

(* Does a walked loop reach [e]: is it [lo + k*step] within [lo, hi]?
   The step must be a literal, and [e] and [hi] a constant away from
   [lo]. *)
let walks_to (l : Sir.loop_desc) (e : Ast.expr) : bool =
  match (l.Sir.step, const_delta l.Sir.lo e, const_delta l.Sir.lo l.Sir.hi) with
  | Ast.Int s, Some d, Some span when s <> 0 ->
      d mod s = 0 && d / s >= 0 && d / s <= span / s
  | _ -> false

(* Membership of the element [need] in a section: each walked index
   stands bare in exactly one subscript, whose counterpart it walks to,
   and every other subscript matches structurally. *)
let in_section (subs : Ast.expr list) (walked : Sir.loop_desc list)
    (need : Ast.expr list) : bool =
  let walker s =
    List.find_opt (fun (l : Sir.loop_desc) -> s = Ast.Var l.Sir.index) walked
  in
  List.length subs = List.length need
  && List.for_all
       (fun (l : Sir.loop_desc) ->
         List.mem (Ast.Var l.Sir.index) subs
         && List.length
              (List.filter
                 (fun s -> List.mem l.Sir.index (Ast.expr_vars s))
                 subs)
            = 1)
       walked
  && List.for_all2
       (fun s n -> match walker s with Some l -> walks_to l n | None -> s = n)
       subs need

(** A key covers itself; a whole-array key covers every element and
    section of its base, and a section the elements it walks to. *)
let key_covers ~(have : dkey) ~(need : dkey) : bool =
  have = need
  ||
  match (have, need) with
  | K_whole a, (K_elem (b, _) | K_section (b, _, _)) -> a = b
  | K_section (a, subs, walked), K_elem (b, need) ->
      a = b && in_section subs walked need
  | _ -> false

(** Where a fact came from: the identical initial memories, a transfer
    op (by uid), or a guarded write (the computing processors hold the
    value they just produced). *)
type source = Sir.fact_source = F_init | F_op of int | F_write of Ast.stmt_id

type fact = { src : source; key : dkey; dests : Sir.dests }

(* [compare] on facts, deciding on the source's integer where the
   sources differ ([F_init < F_op < F_write], then uid or sid, as
   [compare] orders them): only facts of one source, a statement's few
   writes, reach the structural comparison of keys and destinations. *)
let compare_fact (a : fact) (b : fact) : int =
  match (a.src, b.src) with
  | F_op x, F_op y when x <> y -> Int.compare x y
  | F_write x, F_write y when x <> y -> Int.compare x y
  | F_init, (F_op _ | F_write _) | F_op _, F_write _ -> -1
  | F_op _, F_init | F_write _, (F_init | F_op _) -> 1
  | _ -> compare a b

let key_of_xdata = function
  | Sir.X_scalar { var; _ } -> K_scalar var
  | Sir.X_elem { base; subs; _ } -> K_elem (base, subs)

(** The one delivery fact of a transfer op at a statement whose
    enclosing loop indices are [mirror].  A block's crossed index that
    one of those loops binds stays symbolic: the fact names the element
    of the current instance, which the block shipped at the first
    instance of its placement.  Crossed indices the block walks in full
    whenever it ships (a merged pair's synthetic index) make the fact a
    section. *)
let fact_of_op ~(mirror : string list) (op : Sir.comm_op) : fact option =
  let fact key dests = Some { src = F_op op.Sir.uid; key; dests } in
  match op.Sir.xfer with
  | Sir.Block_xfer
      { data = Sir.X_elem { base; subs; _ }; dests; crossed; _ } -> (
      match
        List.filter
          (fun (l : Sir.loop_desc) -> not (List.mem l.Sir.index mirror))
          crossed
      with
      | [] -> fact (K_elem (base, subs)) dests
      | walked -> fact (K_section (base, subs, walked)) dests)
  | Sir.Elem_xfer { data; dests } | Sir.Block_xfer { data; dests; _ } ->
      fact (key_of_xdata data) dests
  | Sir.Whole_xfer { base; dests; _ } -> fact (K_whole base) dests
  | Sir.Reduce_xfer -> None

let op_base (op : Sir.comm_op) : string option =
  match op.Sir.xfer with
  | Sir.Elem_xfer { data; _ } | Sir.Block_xfer { data; _ } ->
      Some (key_base (key_of_xdata data))
  | Sir.Whole_xfer { base; _ } -> Some base
  | Sir.Reduce_xfer -> None

(** Facts from the identical initialization of every per-processor
    memory: each declared variable is valid everywhere until first
    written. *)
let initial_facts (p : Sir.program) : fact list =
  List.map
    (fun (d : Ast.decl) ->
      {
        src = F_init;
        key =
          (if d.Ast.shape = [] then K_scalar d.Ast.dname
           else K_whole d.Ast.dname);
        dests = Sir.D_all;
      })
    p.Sir.source.Ast.decls
  |> List.sort_uniq compare_fact

(** Arrays the final validation reads (a [V_skip] array is dead at
    exit: its privatized values are never compared). *)
let validated_arrays (p : Sir.program) : string list =
  List.filter_map
    (function
      | Sir.V_owned (a, _) | Sir.V_line (a, _) -> Some a
      | Sir.V_skip _ -> None)
    p.Sir.validate_plan
  |> List.sort_uniq String.compare

let instance_node (g : Sir_cfg.t) (sid : Ast.stmt_id) : int option =
  List.find_opt
    (fun i ->
      match (Sir_cfg.node g i).Sir_cfg.kind with
      | Sir_cfg.Simple _ | Sir_cfg.Branch _ | Sir_cfg.Loop_init _ -> true
      | _ -> false)
    (Sir_cfg.nodes_of_sid g sid)

let dests_of_xfer = function
  | Sir.Elem_xfer { dests; _ }
  | Sir.Whole_xfer { dests; _ }
  | Sir.Block_xfer { dests; _ } ->
      Some dests
  | Sir.Reduce_xfer -> None

(* ------------------------------------------------------------------ *)
(* Node events                                                         *)
(* ------------------------------------------------------------------ *)

(* What one node does to the forward state, in order.  [Kill_var x]:
   the reference program redefined [x], so every fact whose datum or
   destination coordinates mention it is dropped (their symbolic
   subscripts changed meaning).  [Kill_base b]: the payload named [b]
   was (partially) overwritten, so every copy of it is conservatively
   stale.  A fact's datum base is one of the names it mentions, so
   [Kill_var b] implies [Kill_base b]. *)
type avail_event = Kill_var of string | Kill_base of string | Add of fact

(* One statement instance applies its ops in field order: mirror the
   enclosing indices, reduction steps, communications, then the guarded
   execution.  The events before the execution build the state the
   statement's own reads see. *)
let pre_events (g : Sir_cfg.t) (ops : Sir.stmt_ops) : avail_event list =
  let write v =
    Add { src = F_write ops.Sir.sid; key = K_scalar v; dests = Sir.D_all }
  in
  (* mirroring refreshes the enclosing indices from the reference on
     every processor *)
  List.concat_map (fun v -> [ Kill_base v; write v ]) ops.Sir.mirror
  @ List.concat_map
      (function
        | Sir.R_mark _ -> []
        | Sir.R_combine ix ->
            (* combining folds the partials to the reference total and
               redistributes it: the accumulator (and its location
               companions) become valid everywhere *)
            let r = g.Sir_cfg.program.Sir.reductions.(ix) in
            List.concat_map
              (fun v -> [ Kill_var v; write v ])
              (r.Sir.rvar :: r.Sir.loc_vars))
      ops.Sir.red_steps
  @ List.filter_map
      (fun op ->
        Option.map (fun f -> Add f) (fact_of_op ~mirror:ops.Sir.mirror op))
      ops.Sir.comms

let exec_events (sid : Ast.stmt_id) (exec : Sir.exec) : avail_event list =
  match exec with
  | Sir.Control _ -> []
  | Sir.Loop_head { index; _ } ->
      (* every processor materializes index := lo *)
      [
        Kill_var index;
        Add { src = F_write sid; key = K_scalar index; dests = Sir.D_all };
      ]
  | Sir.Guarded_assign { lhs; rhs = _; computes } ->
      let base, key =
        match lhs with
        | Ast.LVar v -> (v, K_scalar v)
        | Ast.LArr (a, subs) -> (a, K_elem (a, subs))
      in
      [
        Kill_var base;
        Add { src = F_write sid; key; dests = Sir.D_pred computes };
      ]

(* Five consumers read a {e per-processor} copy (everything else —
   subscripts, loop bounds, owner coordinates — is evaluated against
   the lockstep reference memory): the rhs of a guarded assign, an IF
   condition (on the processors that evaluate it), a reduction combine
   (the partials), a transfer (the source copy) and the final
   validation of a non-skipped array.  The backward events below are
   in backward order. *)
type live_event = Kill of string | Gen of string

(* The execution's events at node [i], whose ops carry [exec]. *)
let exec_live_events (g : Sir_cfg.t) (i : int) (exec : Sir.exec) :
    live_event list =
  match exec with
  | Sir.Control _ -> (
      match (Sir_cfg.node g i).Sir_cfg.kind with
      | Sir_cfg.Branch { Ast.node = Ast.If (cond, _, _); _ } ->
          List.map (fun v -> Gen v) (Ast.expr_vars cond)
      | _ -> [])
  | Sir.Loop_head { index; _ } -> [ Kill index ]
  | Sir.Guarded_assign { lhs; rhs; computes } ->
      (* only an unconditional scalar write overwrites every copy; a
         guarded or element write leaves other copies / elements live *)
      (match lhs with
      | Ast.LVar v when pred_is_all computes -> [ Kill v ]
      | _ -> [])
      @ List.map (fun v -> Gen v) (Ast.expr_vars rhs)

let pre_live_events (g : Sir_cfg.t) (ops : Sir.stmt_ops) : live_event list =
  (* a transfer reads the source processor's copy *)
  List.filter_map
    (fun op -> Option.map (fun b -> Gen b) (op_base op))
    (List.rev ops.Sir.comms)
  @ List.concat_map
      (function
        | Sir.R_mark _ -> []
        | Sir.R_combine ix ->
            let r = g.Sir_cfg.program.Sir.reductions.(ix) in
            List.map (fun v -> Gen v) (r.Sir.rvar :: r.Sir.loc_vars))
      (List.rev ops.Sir.red_steps)
  @ List.map (fun v -> Kill v) ops.Sir.mirror

(* ------------------------------------------------------------------ *)
(* Interned bitsets                                                    *)
(* ------------------------------------------------------------------ *)

(* A set over the ids [0, n) of one interning table, [Sys.int_size] ids
   a word.  A set is never mutated once built, so states are shared
   freely between nodes, results and summaries. *)
module Bits = struct
  type t = int array

  let bpw = Sys.int_size
  let words n = (n + bpw - 1) / bpw
  let empty n : t = Array.make (words n) 0
  let mem (s : t) i = (s.(i / bpw) lsr (i mod bpw)) land 1 = 1

  (* only while the set is being built *)
  let set (s : t) i = s.(i / bpw) <- s.(i / bpw) lor (1 lsl (i mod bpw))
  let remove (s : t) i = s.(i / bpw) <- s.(i / bpw) land lnot (1 lsl (i mod bpw))
  let add_all (s : t) (m : t) = Array.iteri (fun w x -> s.(w) <- s.(w) lor x) m

  let equal (a : t) (b : t) =
    let rec go w = w < 0 || (a.(w) = b.(w) && go (w - 1)) in
    go (Array.length a - 1)

  let inter (a : t) (b : t) : t = Array.map2 ( land ) a b
  let union (a : t) (b : t) : t = Array.map2 ( lor ) a b

  (* ids in ascending order *)
  let elements (s : t) : int list =
    let acc = ref [] in
    for w = Array.length s - 1 downto 0 do
      if s.(w) <> 0 then
        for b = bpw - 1 downto 0 do
          if (s.(w) lsr b) land 1 = 1 then acc := ((w * bpw) + b) :: !acc
        done
    done;
    !acc
end

(* A node's transfer, precomposed: [s -> (s land keep) lor gen].  Any
   sequence of kills and additions composes into one such pair, so a
   worklist visit costs one pass over the words whatever the node
   does.  [None] is the identity. *)
type step = { keep : Bits.t; gen : Bits.t }

let apply (st : step) (s : Bits.t) : Bits.t =
  Array.init (Array.length s) (fun w ->
      (s.(w) land st.keep.(w)) lor st.gen.(w))

(* [a] then [b] *)
let seq (a : step option) (b : step option) : step option =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b ->
      Some
        {
          keep = Bits.inter a.keep b.keep;
          gen = Array.init (Array.length b.gen) (fun w ->
              (a.gen.(w) land b.keep.(w)) lor b.gen.(w));
        }

(* Replay [events] into a fresh step: [kill] returns the mask a kill
   clears ([None]: nothing to clear), [add] the id an addition sets. *)
let build_step (n : int) ~(kill : 'e -> Bits.t option)
    ~(add : 'e -> int option) (events : 'e list) : step option =
  if events = [] then None
  else begin
    let keep = Array.make (Bits.words n) (-1)
    and gen = Bits.empty n in
    List.iter
      (fun e ->
        (match kill e with
        | Some m ->
            for w = 0 to Array.length m - 1 do
              keep.(w) <- keep.(w) land lnot m.(w);
              gen.(w) <- gen.(w) land lnot m.(w)
            done
        | None -> ());
        match add e with Some i -> Bits.set gen i | None -> ())
      events;
    Some { keep; gen }
  end

(* ------------------------------------------------------------------ *)
(* The interning table                                                 *)
(* ------------------------------------------------------------------ *)

(* Every fact a node of the program can generate and every name it can
   make live, interned once.  Ids follow [compare] order, so a set
   listed by ascending id is exactly the sorted list the analyses are
   specified on.  Built eagerly and never mutated afterwards: a summary
   may be read from several domains. *)
type universe = {
  facts : fact array;  (** id -> fact, ascending [compare] order *)
  names : string array;  (** id -> name, ascending *)
  name_ids : (string, int) Hashtbl.t;
  mentions : (string, Bits.t) Hashtbl.t;
      (** [Kill_var x]: the facts whose datum or destinations mention x *)
  copies : (string, Bits.t) Hashtbl.t;
      (** [Kill_base b]: the facts whose datum base is b *)
  covers : Bits.t array;
      (** per fact of a transfer op: the facts, other than that op's
          own, that make it valid ([||] for other facts) *)
  initial : Bits.t;  (** {!initial_facts} *)
  validated : Bits.t;  (** {!validated_arrays} *)
}

let fact_id (u : universe) (f : fact) : int =
  let rec go lo hi =
    if lo >= hi then invalid_arg "Sir_dataflow: fact outside the universe"
    else
      let mid = (lo + hi) / 2 in
      let c = compare_fact f u.facts.(mid) in
      if c = 0 then mid else if c < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length u.facts)

let name_id (u : universe) (v : string) : int option =
  Hashtbl.find_opt u.name_ids v

let avail_step (u : universe) : avail_event list -> step option =
  build_step (Array.length u.facts)
    ~kill:(function
      | Kill_var x -> Hashtbl.find_opt u.mentions x
      | Kill_base b -> Hashtbl.find_opt u.copies b
      | Add _ -> None)
    ~add:(function
      | Add f -> Some (fact_id u f)
      | Kill_var _ | Kill_base _ -> None)

let live_step (u : universe) : live_event list -> step option =
  let n = Array.length u.names in
  build_step n
    ~kill:(function
      | Kill v ->
          Option.map
            (fun i ->
              let m = Bits.empty n in
              Bits.set m i;
              m)
            (name_id u v)
      | Gen _ -> None)
    ~add:(function Gen v -> name_id u v | Kill _ -> None)

let intern (g : Sir_cfg.t) : universe =
  let p = g.Sir_cfg.program in
  let init = initial_facts p and validated = validated_arrays p in
  let facts = ref init and names = ref validated in
  for i = 0 to Sir_cfg.n_nodes g - 1 do
    match Sir_cfg.ops_at g i with
    | None -> ()
    | Some ops ->
        List.iter
          (function
            | Add f -> facts := f :: !facts
            | Kill_var _ | Kill_base _ -> ())
          (pre_events g ops @ exec_events ops.Sir.sid ops.Sir.exec);
        List.iter
          (function Gen v -> names := v :: !names | Kill _ -> ())
          (exec_live_events g i ops.Sir.exec @ pre_live_events g ops)
  done;
  let facts = Array.of_list (List.sort_uniq compare_fact !facts)
  and names = Array.of_list (List.sort_uniq String.compare !names) in
  let nf = Array.length facts and nn = Array.length names in
  (* Facts with one key and one destination set mention the same names,
     copy the same base and cover, or are covered by, the same facts:
     each such class is decided once. *)
  let class_ids = Hashtbl.create 64 and reps = ref [] in
  let cls =
    Array.mapi
      (fun i f ->
        let k = (f.key, f.dests) in
        match Hashtbl.find_opt class_ids k with
        | Some c -> c
        | None ->
            let c = Hashtbl.length class_ids in
            Hashtbl.add class_ids k c;
            reps := i :: !reps;
            c)
      facts
  in
  let reps = Array.of_list (List.rev !reps) in
  let members = Array.map (fun _ -> Bits.empty nf) reps in
  Array.iteri (fun i c -> Bits.set members.(c) i) cls;
  let mentions = Hashtbl.create 64 and copies = Hashtbl.create 64 in
  let mark tbl x c =
    match Hashtbl.find_opt tbl x with
    | Some m -> Bits.add_all m members.(c)
    | None -> Hashtbl.replace tbl x (Array.copy members.(c))
  in
  (* the classes of each key, and of each base's whole-array and
     section keys: a key is covered only by itself, its base's whole
     array and, for an element, its base's sections *)
  let by_key = Hashtbl.create 64
  and wholes = Hashtbl.create 16
  and sections = Hashtbl.create 16 in
  let push tbl x c =
    Hashtbl.replace tbl x
      (c :: Option.value ~default:[] (Hashtbl.find_opt tbl x))
  in
  let classes tbl x = Option.value ~default:[] (Hashtbl.find_opt tbl x) in
  Array.iteri
    (fun c i ->
      let f = facts.(i) in
      List.iter (fun x -> mark mentions x c) (key_vars f.key @ dests_vars f.dests);
      mark copies (key_base f.key) c;
      push by_key f.key c;
      match f.key with
      | K_whole b -> push wholes b c
      | K_section (b, _, _) -> push sections b c
      | K_scalar _ | K_elem _ -> ())
    reps;
  (* the facts that make a class's facts valid, once per class *)
  let covering = Array.make (Array.length reps) None in
  let covering_of c =
    match covering.(c) with
    | Some m -> m
    | None ->
        let need = facts.(reps.(c)) and m = Bits.empty nf in
        let cover h =
          let have = facts.(reps.(h)) in
          if
            key_covers ~have:have.key ~need:need.key
            && dests_covers ~have:have.dests ~need:need.dests
          then Bits.add_all m members.(h)
        in
        List.iter cover (classes by_key need.key);
        (match need.key with
        | K_scalar _ | K_whole _ -> ()
        | K_section (b, _, _) -> List.iter cover (classes wholes b)
        | K_elem (b, _) ->
            List.iter cover (classes wholes b);
            List.iter cover (classes sections b));
        covering.(c) <- Some m;
        m
  in
  (* an op's own facts, adjacent in source order, never cover it *)
  let covers =
    Array.mapi
      (fun i f ->
        match f.src with
        | F_init | F_write _ -> [||]
        | F_op _ ->
            let m = Array.copy (covering_of cls.(i)) in
            let rec clear_src j step =
              if j >= 0 && j < nf && facts.(j).src = f.src then begin
                Bits.remove m j;
                clear_src (j + step) step
              end
            in
            clear_src i 1;
            clear_src (i - 1) (-1);
            m)
      facts
  in
  let name_ids = Hashtbl.create (max 16 nn) in
  Array.iteri (fun i v -> Hashtbl.replace name_ids v i) names;
  let u =
    {
      facts;
      names;
      name_ids;
      mentions;
      copies;
      covers;
      initial = Bits.empty nf;
      validated = Bits.empty nn;
    }
  in
  List.iter (fun f -> Bits.set u.initial (fact_id u f)) init;
  List.iter
    (fun v -> Option.iter (Bits.set u.validated) (name_id u v))
    validated;
  u

(* ------------------------------------------------------------------ *)
(* The lattices                                                        *)
(* ------------------------------------------------------------------ *)

module Avail = struct
  (* Top is the optimistic "not yet reached" state of the MUST
     analysis; unreachable nodes keep it (they never execute, so every
     claim about them is vacuously true). *)
  type t = Top | Facts of Bits.t

  let equal (a : t) (b : t) =
    match (a, b) with
    | Top, Top -> true
    | Facts x, Facts y -> Bits.equal x y
    | Top, Facts _ | Facts _, Top -> false

  let join a b =
    match (a, b) with
    | Top, x | x, Top -> x
    | Facts xs, Facts ys -> Facts (Bits.inter xs ys)

  let facts (u : universe) = function
    | Top -> None
    | Facts s -> Some (List.map (fun i -> u.facts.(i)) (Bits.elements s))
end

module Avail_engine = Flow.Make (Avail)

module Live = struct
  type t = Bits.t  (** names possibly read downstream *)

  let equal = Bits.equal
  let join = Bits.union
  let names (u : universe) (l : t) =
    List.map (fun i -> u.names.(i)) (Bits.elements l)
end

module Live_engine = Flow.Make (Live)

(* ------------------------------------------------------------------ *)
(* Per-node plans                                                      *)
(* ------------------------------------------------------------------ *)

type op_plan = {
  op : Sir.comm_op;
  delivers : int option;  (** id of {!fact_of_op} *)
  source : int option;  (** name id of the copy it reads ({!op_base}) *)
}

(* Everything a worklist visit and the classification need from one
   node, derived once from its ops. *)
type plan = {
  fwd : step option;  (** the forward transfer *)
  pre : step option;  (** in-state -> the state the statement reads *)
  bwd : step option;  (** the backward transfer *)
  bwd_exec : step option;  (** the execution's backward effect alone *)
  comms : op_plan list;  (** execution order *)
  sid : Ast.stmt_id;  (** of the ops ([-1] without) *)
}

(* The backward transfer of a node's ops: the execution's alone
   ([bwd_exec]), then the reduction, communication and mirror events
   before it. *)
let bwd_step (u : universe) (g : Sir_cfg.t) (ops : Sir.stmt_ops)
    (bwd_exec : step option) : step option =
  seq bwd_exec (live_step u (pre_live_events g ops))

let plan_node (u : universe) (g : Sir_cfg.t) (i : int) : plan =
  let index =
    avail_step u
      (match Sir_cfg.index_defined_at g i with
      | Some x -> [ Kill_var x ]
      | None -> [])
  in
  match Sir_cfg.ops_at g i with
  | None ->
      {
        fwd = index;
        pre = None;
        bwd = None;
        bwd_exec = None;
        comms = [];
        sid = -1;
      }
  | Some ops ->
      let pre = avail_step u (pre_events g ops) in
      let bwd_exec = live_step u (exec_live_events g i ops.Sir.exec) in
      {
        fwd =
          seq index
            (seq pre (avail_step u (exec_events ops.Sir.sid ops.Sir.exec)));
        pre;
        bwd = bwd_step u g ops bwd_exec;
        bwd_exec;
        comms =
          List.map
            (fun op ->
              {
                op;
                delivers =
                  Option.map (fact_id u)
                    (fact_of_op ~mirror:ops.Sir.mirror op);
                source = Option.bind (op_base op) (name_id u);
              })
            ops.Sir.comms;
        sid = ops.Sir.sid;
      }

(* ------------------------------------------------------------------ *)
(* The classification                                                  *)
(* ------------------------------------------------------------------ *)

type summary = {
  cfg : Sir_cfg.t;
  universe : universe;
  plans : plan array;
  avail : Avail.t Flow.result;
  live : Live.t Flow.result;
  dead : (Ast.stmt_id * Sir.comm_op) list;  (** [W0606] class *)
  redundant : (Ast.stmt_id * Sir.comm_op) list;  (** [W0607] class *)
}

(** Ops whose removal the fixpoints certify as observation-preserving
    (the delete-and-diff oracle's removable class). *)
let removable (s : summary) : Sir.comm_op list =
  List.sort_uniq compare (List.map snd s.dead @ List.map snd s.redundant)

(* Does [(s land keep) lor gen] meet [m]?  Without building the set. *)
let meets (pre : step option) (s : Bits.t) (m : Bits.t) : bool =
  let rec go w =
    w >= 0
    &&
    let x =
      match pre with
      | None -> s.(w)
      | Some st -> (s.(w) land st.keep.(w)) lor st.gen.(w)
    in
    x land m.(w) <> 0 || go (w - 1)
  in
  go (Array.length s - 1)

let live_after (st : step option) (s : Bits.t) (b : int) : bool =
  match st with
  | None -> Bits.mem s b
  | Some st -> (Bits.mem s b && Bits.mem st.keep b) || Bits.mem st.gen b

let classify (cfg : Sir_cfg.t) (u : universe) (plans : plan array)
    (avail : Avail.t Flow.result) (live : Live.t Flow.result) =
  let redundant = ref [] and dead = ref [] in
  Array.iteri
    (fun i (pl : plan) ->
      (* W0607: a transfer whose datum the remaining deliveries already
         make valid at every destination on all paths — its own
         deliveries are left out of every cover set *)
      let valid =
        match avail.Flow.input.(i) with
        | Avail.Top -> fun _ -> true
        | Avail.Facts s -> meets pl.pre s
      in
      List.iter
        (fun (o : op_plan) ->
          match o.delivers with
          | Some f when valid u.covers.(f) ->
              redundant := (pl.sid, o.op) :: !redundant
          | _ -> ())
        pl.comms;
      (* W0606: a transfer whose payload no processor reads again —
         walked backward from the live-out state through the execution
         and the later transfers *)
      let out = live.Flow.input.(i) in
      ignore
        (List.fold_left
           (fun later (o : op_plan) ->
             match o.source with
             | None -> later
             | Some b ->
                 if not (live_after pl.bwd_exec out b || List.mem b later)
                 then begin
                   let sid =
                     match Sir_cfg.sid_of_node cfg i with
                     | Some s -> s
                     | None -> -1
                   in
                   dead := (sid, o.op) :: !dead
                 end;
                 b :: later)
           [] (List.rev pl.comms)))
    plans;
  let by_pos (_, (a : Sir.comm_op)) (_, (b : Sir.comm_op)) =
    compare a.Sir.pos b.Sir.pos
  in
  let dead = List.sort by_pos !dead in
  (* an op already certified dead does not need a second W0607 entry;
     keep the classes disjoint *)
  let redundant =
    List.sort by_pos !redundant
    |> List.filter (fun (_, (op : Sir.comm_op)) ->
           not
             (List.exists
                (fun (_, (d : Sir.comm_op)) -> d.Sir.uid = op.Sir.uid)
                dead))
  in
  (dead, redundant)

(* ------------------------------------------------------------------ *)
(* Prepared analyses                                                   *)
(* ------------------------------------------------------------------ *)

type prepared = {
  p_cfg : Sir_cfg.t;
  p_universe : universe;
  p_plans : plan array;  (** current; {!replan} replaces entries *)
}

let prepare (sir : Sir.program) : prepared =
  let cfg = Sir_cfg.build sir in
  let u = intern cfg in
  {
    p_cfg = cfg;
    p_universe = u;
    p_plans = Array.init (Sir_cfg.n_nodes cfg) (plan_node u cfg);
  }

let resume (s : summary) : prepared =
  { p_cfg = s.cfg; p_universe = s.universe; p_plans = Array.copy s.plans }

let replan (ctx : prepared) (sid : Ast.stmt_id) : unit =
  List.iter
    (fun i -> ctx.p_plans.(i) <- plan_node ctx.p_universe ctx.p_cfg i)
    (Sir_cfg.nodes_of_sid ctx.p_cfg sid)

let live_fixpoint (cfg : Sir_cfg.t) (u : universe)
    (bwd : int -> step option) : Live.t Flow.result =
  Live_engine.fixpoint ~cfg ~direction:Flow.Backward ~boundary:u.validated
    ~init:(Bits.empty (Array.length u.names))
    ~transfer:(fun i l ->
      match bwd i with None -> l | Some step -> apply step l)

let analyze (ctx : prepared) : summary =
  let cfg = ctx.p_cfg and u = ctx.p_universe in
  let plans = Array.copy ctx.p_plans in
  let avail =
    Avail_engine.fixpoint ~cfg ~direction:Flow.Forward
      ~boundary:(Avail.Facts u.initial) ~init:Avail.Top
      ~transfer:(fun i st ->
        match (st, plans.(i).fwd) with
        | Avail.Top, _ | _, None -> st
        | Avail.Facts s, Some step -> Avail.Facts (apply step s))
  in
  let live = live_fixpoint cfg u (fun i -> plans.(i).bwd) in
  let dead, redundant = classify cfg u plans avail live in
  { cfg; universe = u; plans; avail; live; dead; redundant }

let summarize (sir : Sir.program) : summary = analyze (prepare sir)

(* The state the statement at node [i] reads: the in-state replayed
   through the node's mirror, reduction and communication ops ([None]:
   the node is unreachable). *)
let pre_state (s : summary) (i : int) : Bits.t option =
  match s.avail.Flow.input.(i) with
  | Avail.Top -> None
  | Avail.Facts st -> (
      match s.plans.(i).pre with None -> Some st | Some pre -> Some (apply pre st))

let covered_at (s : summary) (i : int) ~(key : dkey) ~(need : Sir.dests) :
    bool =
  match pre_state s i with
  | None -> true
  | Some st -> (
      match Hashtbl.find_opt s.universe.copies (key_base key) with
      | None -> false
      | Some same ->
          List.exists
            (fun h ->
              let have = s.universe.facts.(h) in
              key_covers ~have:have.key ~need:key
              && dests_covers ~have:have.dests ~need)
            (Bits.elements (Bits.inter st same)))

let covers_of (s : summary) (i : int) (uid : int) : source list =
  match
    ( pre_state s i,
      List.find_opt (fun (o : op_plan) -> o.op.Sir.uid = uid) s.plans.(i).comms
    )
  with
  | Some st, Some { delivers = Some f; _ } -> (
      match Bits.elements (Bits.inter st s.universe.covers.(f)) with
      | h :: _ -> [ s.universe.facts.(h).src ]
      | [] -> [])
  | _ -> []

let read_after (s : summary) (i : int) (base : string) : bool =
  match name_id s.universe base with
  | None -> false
  | Some b ->
      let pl = s.plans.(i) in
      live_after pl.bwd_exec s.live.Flow.input.(i) b
      || List.exists (fun (o : op_plan) -> o.source = Some b) pl.comms

(* ------------------------------------------------------------------ *)
(* Redundant deletions from one analysis                               *)
(* ------------------------------------------------------------------ *)

(* Deleting a transfer removes only its own additions: facts carry their
   source op and only reference writes kill them, so every fact's bit
   of the MUST fixpoint is independent of the others and the analysis
   of the program without a set [S] of transfers is the analysis of the
   original with [S]'s facts cleared.  A candidate therefore stays
   redundant exactly while the fact it delivers keeps a cover, in its
   node's original pre-state, whose source was not deleted — and the
   lowest such cover is what [covers_of] would name after a re-analysis.
   Deletions only shrink both fixpoints, so the one-at-a-time loop takes
   the candidates in [redundant]'s order, each once, against the
   deletions before it.

   Liveness is a MAY analysis: deleting a transfer removes a read of
   its source copy and can leave a later candidate dead, which the loop
   then skips.  So once something was deleted, a candidate that nothing
   later at its own node reads is tested against the program as it now
   stands: at a reachable node the fixpoint is the least one, and a
   name is live there exactly when a path reaches a read of it with no
   overwrite in between — one search over the backward transfers of the
   remaining ops (re-running the fixpoint after every deletion instead
   grows quadratically with the program); at an unreachable node, which
   the worklist visits only as its successors change, the liveness
   fixpoint itself is re-run. *)
let redundant_deletions (s : summary) : (Sir.comm_op * source list) list =
  let u = s.universe and cfg = s.cfg in
  let deleted = Hashtbl.create 16 in
  let gone (op : Sir.comm_op) = Hashtbl.mem deleted op.Sir.uid in
  let survives h =
    match u.facts.(h).src with
    | F_op uid -> not (Hashtbl.mem deleted uid)
    | F_init | F_write _ -> true
  in
  let surviving_covers i (o : op_plan) : source list option =
    match (pre_state s i, o.delivers) with
    | None, _ | _, None -> Some []
    | Some st, Some f ->
        Option.map
          (fun h -> [ u.facts.(h).src ])
          (List.find_opt survives (Bits.elements (Bits.inter st u.covers.(f))))
  in
  (* the backward transfers without the deleted ops *)
  let bwd = Array.map (fun (pl : plan) -> pl.bwd) s.plans in
  let seen = Array.make (Array.length bwd) 0 and stamp = ref 0 in
  let live_out i b =
    incr stamp;
    let rec search = function
      | [] -> false
      | x :: rest when seen.(x) = !stamp -> search rest
      | x :: rest -> (
          seen.(x) <- !stamp;
          if x = cfg.Sir_cfg.exit_ then Bits.mem u.validated b || search rest
          else
            match bwd.(x) with
            | Some st when Bits.mem st.gen b -> true
            | Some st when not (Bits.mem st.keep b) -> search rest
            | _ -> search (List.rev_append (Sir_cfg.succs cfg x) rest))
    in
    search (Sir_cfg.succs cfg i)
  in
  let refixed = ref None in
  let live_out_unreached i b =
    let live =
      match !refixed with
      | Some l -> l
      | None ->
          let l = live_fixpoint cfg u (fun x -> bwd.(x)) in
          refixed := Some l;
          l
    in
    Bits.mem live.Flow.input.(i) b
  in
  (* [classify]'s W0606 test against the program as it now stands *)
  let dead_now i (o : op_plan) : bool =
    match o.source with
    | None -> false
    | Some _ when Hashtbl.length deleted = 0 -> false
    | Some b ->
        let pl = s.plans.(i) in
        let rec later_reads = function
          | [] -> false
          | (x : op_plan) :: rest when x.op.Sir.uid = o.op.Sir.uid ->
              List.exists
                (fun (y : op_plan) -> y.source = Some b && not (gone y.op))
                rest
          | _ :: rest -> later_reads rest
        in
        let live_out =
          match s.avail.Flow.input.(i) with
          | Avail.Top -> live_out_unreached
          | Avail.Facts _ -> live_out
        in
        not
          (later_reads pl.comms
          ||
          match pl.bwd_exec with
          | None -> live_out i b
          | Some st ->
              Bits.mem st.gen b || (Bits.mem st.keep b && live_out i b))
  in
  List.fold_left
    (fun acc (sid, (op : Sir.comm_op)) ->
      match instance_node cfg sid with
      | None -> acc
      | Some i -> (
          match
            List.find_opt
              (fun (o : op_plan) -> o.op.Sir.uid = op.Sir.uid)
              s.plans.(i).comms
          with
          | None -> acc
          | Some o -> (
              match surviving_covers i o with
              | Some covers when not (dead_now i o) ->
                  Hashtbl.replace deleted op.Sir.uid ();
                  (match Sir_cfg.ops_at cfg i with
                  | Some ops ->
                      bwd.(i) <-
                        bwd_step u cfg
                          {
                            ops with
                            Sir.comms =
                              List.filter (fun x -> not (gone x)) ops.Sir.comms;
                          }
                          s.plans.(i).bwd_exec
                  | None -> ());
                  refixed := None;
                  (op, covers) :: acc
              | _ -> acc)))
    [] s.redundant
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_walk ppf (l : Sir.loop_desc) =
  Fmt.pf ppf "%s=%a:%a:%a" l.Sir.index Pp.pp_expr l.Sir.lo Pp.pp_expr
    l.Sir.hi Pp.pp_expr l.Sir.step

let pp_key ppf = function
  | K_scalar v -> Fmt.string ppf v
  | K_whole a -> Fmt.pf ppf "%s(*)" a
  | K_elem (b, subs) ->
      Fmt.pf ppf "%s(%a)" b Fmt.(list ~sep:(any ",") Pp.pp_expr) subs
  | K_section (b, subs, walked) ->
      Fmt.pf ppf "%s(%a)[%a]" b
        Fmt.(list ~sep:(any ",") Pp.pp_expr)
        subs
        Fmt.(list ~sep:(any ",") pp_walk)
        walked

let pp_fact ppf (f : fact) =
  Fmt.pf ppf "%a@%a" pp_key f.key Sir_pp.pp_dests f.dests

let pp_avail (u : universe) ppf (a : Avail.t) =
  match Avail.facts u a with
  | None -> Fmt.string ppf "<unreached>"
  | Some fs -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any "; ") pp_fact) fs

let pp_live (u : universe) ppf (l : Live.t) =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any "; ") string) (Live.names u l)
