(** Static single assignment form (Cytron et al., the paper's [5]).

    Minimal SSA over the CFG of {!Cfg}: φ-functions are placed on the
    iterated dominance frontier of each variable's definition sites, and a
    dominator-tree walk renames uses to point at their unique reaching
    definition.  Arrays participate with update semantics (an element
    assignment both defines and uses the array name).

    The paper's mapping algorithm works in terms of the {e original}
    variables: "reached uses of a definition" and "reaching definitions of
    a use" with φ-functions collapsed.  {!reached_uses} and
    {!reaching_defs} implement that collapse, additionally reporting
    whether the value flowed across a loop back edge (needed by the
    privatizability test).  The reached uses of every scalar definition
    are computed once, when the SSA is built. *)

type def_id = int

type def_site =
  | Entry_def of string
      (** the variable's value on entry to the program (version 0) *)
  | Node_def of { node : int; var : string }  (** a real definition *)
  | Phi of { node : int; var : string; mutable args : (int * def_id) list }
      (** [args] maps each CFG predecessor to the incoming definition *)

(** A use of a definition's value, after collapsing φ-functions.

    [back_edges] lists the loop-head CFG nodes whose back edge the value
    crossed on the way to this use (i.e. loops that carry this flow into
    a later iteration). *)
type use_info = { use_node : int; use_var : string; back_edges : int list }

type t = {
  cfg : Cfg.t;
  dom : Dom.t;
  defs : def_site array;
  use_def : (int * string, def_id) Hashtbl.t;
      (** (node, var) -> reaching definition at that use site *)
  def_real_uses : (def_id, (int * string) list) Hashtbl.t;
      (** real (non-φ) uses of each definition *)
  def_phi_uses : (def_id, (def_id * int) list) Hashtbl.t;
      (** φ-functions using each definition, with the incoming pred node *)
  node_def : (int * string, def_id) Hashtbl.t;
  phi_at : (int * string, def_id) Hashtbl.t;
  reached : use_info list option array;
      (** reached uses of each scalar's definitions; [None] for arrays *)
}

let def_var (t : t) (d : def_id) : string =
  match t.defs.(d) with
  | Entry_def v -> v
  | Node_def { var; _ } -> var
  | Phi { var; _ } -> var

let def_node (t : t) (d : def_id) : int option =
  match t.defs.(d) with
  | Entry_def _ -> None
  | Node_def { node; _ } | Phi { node; _ } -> Some node

let is_phi (t : t) (d : def_id) : bool =
  match t.defs.(d) with Phi _ -> true | Entry_def _ | Node_def _ -> false

(** Is the CFG edge [pred -> node] a loop back edge?  In our structured
    CFGs the only back edges are [Loop_step -> Loop_head] of the same
    loop. *)
let is_back_edge (g : Cfg.t) ~(pred : int) ~(node : int) : bool =
  match ((Cfg.node g pred).kind, (Cfg.node g node).kind) with
  | Cfg.Loop_step s1, Cfg.Loop_head s2 -> s1.sid = s2.sid
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Reached uses                                                        *)
(* ------------------------------------------------------------------ *)

module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

(* The reached uses of every definition of a scalar, in one pass over
   the φ graph.  Its edges run from a definition to each φ it feeds,
   labelled with the φ's loop head when they enter along that loop's
   back edge.  A use's crossed heads are the union of the labels over
   all walks from the definition to the use, so the members of one
   strongly connected component answer alike: every use the component
   reaches collects all labels inside it, and an edge leaving it adds
   those and its own label to everything its target reaches.  Tarjan's
   algorithm finishes the components sinks first, so each one merges
   finished answers; it runs on an explicit stack, since a φ chain is
   as long as the program.  [scalar] selects the definitions answered:
   arrays have the largest φ webs and nothing asks about them. *)
let reached_table ~(cfg : Cfg.t) ~(defs : def_site array)
    ~(def_real_uses : (def_id, (int * string) list) Hashtbl.t)
    ~(def_phi_uses : (def_id, (def_id * int) list) Hashtbl.t)
    ~(scalar : def_id -> bool) : use_info list option array =
  let n = Array.length defs in
  let uses d =
    match Hashtbl.find_opt def_real_uses d with Some l -> l | None -> []
  in
  (* (target φ, crossed loop head or -1) *)
  let edges =
    Array.init n (fun d ->
        match Hashtbl.find_opt def_phi_uses d with
        | Some l when scalar d ->
            List.map
              (fun (phi, pred) ->
                match defs.(phi) with
                | Phi { node; _ } when is_back_edge cfg ~pred ~node ->
                    (phi, node)
                | Phi _ | Entry_def _ | Node_def _ -> (phi, -1))
              l
        | Some _ | None -> [])
  in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false and comp = Array.make n (-1) in
  let comp_uses = Array.make n Int_map.empty in
  let reached = Array.make n None in
  let counter = ref 0 and n_comps = ref 0 and tarjan = ref [] in
  let merge = Int_map.union (fun _ a b -> Some (Int_set.union a b)) in
  let finish members =
    let c = !n_comps in
    incr n_comps;
    List.iter (fun d -> comp.(d) <- c) members;
    let inner =
      List.fold_left
        (fun acc d ->
          List.fold_left
            (fun acc (w, h) ->
              if comp.(w) = c && h >= 0 then Int_set.add h acc else acc)
            acc edges.(d))
        Int_set.empty members
    in
    (* every answer merged below already holds [inner] *)
    let own m d =
      List.fold_left
        (fun m (node, _) ->
          Int_map.update node (function None -> Some inner | s -> s) m)
        m (uses d)
    in
    let leaving m d =
      List.fold_left
        (fun m (w, h) ->
          if comp.(w) = c then m
          else
            let extra = if h >= 0 then Int_set.add h inner else inner in
            let downstream = comp_uses.(comp.(w)) in
            merge m
              (if Int_set.is_empty extra then downstream
               else Int_map.map (Int_set.union extra) downstream))
        m edges.(d)
    in
    let m =
      List.fold_left (fun m d -> leaving (own m d) d) Int_map.empty members
    in
    comp_uses.(c) <- m;
    let var =
      match defs.(List.hd members) with
      | Entry_def v | Node_def { var = v; _ } | Phi { var = v; _ } -> v
    in
    let answer =
      Int_map.bindings m
      |> List.map (fun (use_node, crossed) ->
             { use_node; use_var = var; back_edges = Int_set.elements crossed })
    in
    List.iter (fun d -> reached.(d) <- Some answer) members
  in
  let start d frames =
    index.(d) <- !counter;
    low.(d) <- !counter;
    incr counter;
    tarjan := d :: !tarjan;
    on_stack.(d) <- true;
    (d, ref edges.(d)) :: frames
  in
  let rec run = function
    | [] -> ()
    | (v, rest) :: parents as frames -> (
        match !rest with
        | (w, _) :: tl ->
            rest := tl;
            if index.(w) < 0 then run (start w frames)
            else begin
              if on_stack.(w) then low.(v) <- min low.(v) index.(w);
              run frames
            end
        | [] ->
            if low.(v) = index.(v) then begin
              let rec pop acc =
                match !tarjan with
                | w :: tl ->
                    tarjan := tl;
                    on_stack.(w) <- false;
                    if w = v then w :: acc else pop (w :: acc)
                | [] -> acc
              in
              finish (pop [])
            end;
            (match parents with
            | (p, _) :: _ -> low.(p) <- min low.(p) low.(v)
            | [] -> ());
            run parents)
  in
  for d = 0 to n - 1 do
    if scalar d && index.(d) < 0 then run (start d [])
  done;
  reached

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Each node's defs and uses are read once, each variable's def sites
   collected once, and the φs kept per node in variable order, so
   placement and renaming touch only what a node mentions and the φs it
   and its successors carry.  Def ids number the entry values, then the
   real defs in node order, then the φs variable by variable in the
   order their iterated frontier reaches them. *)
let build (g : Cfg.t) : t =
  let dom = Dom.compute g in
  let n = Cfg.n_nodes g in
  let reachable = Cfg.is_reachable g in
  let node_defs = Array.init n (Cfg.defs g) in
  let node_uses = Array.init n (Cfg.uses g) in
  let var_ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let collect = List.iter (fun v -> Hashtbl.replace var_ids v 0) in
  Array.iter collect node_defs;
  Array.iter collect node_uses;
  let vars =
    Hashtbl.fold (fun v _ acc -> v :: acc) var_ids []
    |> List.sort String.compare |> Array.of_list
  in
  Array.iteri (fun k v -> Hashtbl.replace var_ids v k) vars;
  let node_uses =
    Array.map (List.map (fun v -> (v, Hashtbl.find var_ids v))) node_uses
  in
  let defs_tbl : def_site list ref = ref [] in
  let n_defs = ref 0 in
  let new_def site =
    let id = !n_defs in
    incr n_defs;
    defs_tbl := site :: !defs_tbl;
    id
  in
  let node_def = Hashtbl.create 128 in
  let phi_at = Hashtbl.create 64 in
  (* entry defs for all variables *)
  let entry_def = Array.map (fun v -> new_def (Entry_def v)) vars in
  (* real defs, and each variable's def sites (reversed) *)
  let real_defs = Array.make n [] in
  let sites = Array.make (Array.length vars) [] in
  for i = 0 to n - 1 do
    if reachable.(i) then
      List.iter
        (fun v ->
          let k = Hashtbl.find var_ids v in
          let d = new_def (Node_def { node = i; var = v }) in
          Hashtbl.replace node_def (i, v) d;
          real_defs.(i) <- (k, d) :: real_defs.(i);
          match sites.(k) with
          | j :: _ when j = i -> ()
          | l -> sites.(k) <- i :: l)
        node_defs.(i)
  done;
  let real_defs = Array.map List.rev real_defs in
  (* φ placement: iterated dominance frontier of def sites (incl. entry);
     the marks hold the variable they were set for *)
  let on_work = Array.make n (-1) and has_phi = Array.make n (-1) in
  let phis = Array.make n [] in
  Array.iteri
    (fun k v ->
      let work = Queue.create () in
      let enqueue i =
        if on_work.(i) <> k then begin
          Queue.add i work;
          on_work.(i) <- k
        end
      in
      List.iter enqueue (List.rev sites.(k));
      (* entry node is also a def site (Entry_def) *)
      enqueue g.entry;
      while not (Queue.is_empty work) do
        let x = Queue.pop work in
        List.iter
          (fun y ->
            if has_phi.(y) <> k && reachable.(y) then begin
              has_phi.(y) <- k;
              let d = new_def (Phi { node = y; var = v; args = [] }) in
              Hashtbl.replace phi_at (y, v) d;
              phis.(y) <- (k, d) :: phis.(y);
              enqueue y
            end)
          dom.frontiers.(x)
      done)
    vars;
  let phis = Array.map List.rev phis in
  let defs = Array.of_list (List.rev !defs_tbl) in
  (* renaming *)
  let use_def = Hashtbl.create 256 in
  let stacks = Array.map (fun d -> [ d ]) entry_def in
  let top k = match stacks.(k) with d :: _ -> d | [] -> entry_def.(k) in
  let push (k, d) = stacks.(k) <- d :: stacks.(k) in
  let pop (k, _) =
    match stacks.(k) with [] -> () | _ :: tl -> stacks.(k) <- tl
  in
  let rec rename (i : int) =
    (* φ defs first *)
    List.iter push phis.(i);
    (* uses see pre-def values (after φ) *)
    List.iter
      (fun (v, k) -> Hashtbl.replace use_def (i, v) (top k))
      node_uses.(i);
    (* real defs *)
    List.iter push real_defs.(i);
    (* fill φ args of successors *)
    List.iter
      (fun s ->
        List.iter
          (fun (k, d) ->
            match defs.(d) with
            | Phi p ->
                if not (List.mem_assoc i p.args) then
                  p.args <- (i, top k) :: p.args
            | Entry_def _ | Node_def _ -> assert false)
          phis.(s))
      (Cfg.node g i).succs;
    (* recurse into dominator-tree children *)
    List.iter rename dom.children.(i);
    List.iter pop real_defs.(i);
    List.iter pop phis.(i)
  in
  rename g.entry;
  (* invert use_def into def -> uses, and collect φ arg uses *)
  let def_real_uses = Hashtbl.create 128 in
  let def_phi_uses = Hashtbl.create 128 in
  Hashtbl.iter
    (fun (node, var) d ->
      let cur =
        match Hashtbl.find_opt def_real_uses d with Some l -> l | None -> []
      in
      Hashtbl.replace def_real_uses d ((node, var) :: cur))
    use_def;
  Array.iteri
    (fun phi_id site ->
      match site with
      | Phi { args; _ } ->
          List.iter
            (fun (pred, d) ->
              let cur =
                match Hashtbl.find_opt def_phi_uses d with
                | Some l -> l
                | None -> []
              in
              Hashtbl.replace def_phi_uses d ((phi_id, pred) :: cur))
            args
      | Entry_def _ | Node_def _ -> ())
    defs;
  let array_var = Array.map (Hpf_lang.Ast.is_array g.prog) vars in
  let scalar d =
    match defs.(d) with
    | Entry_def v | Node_def { var = v; _ } | Phi { var = v; _ } ->
        not array_var.(Hashtbl.find var_ids v)
  in
  {
    cfg = g;
    dom;
    defs;
    use_def;
    def_real_uses;
    def_phi_uses;
    node_def;
    phi_at;
    reached = reached_table ~cfg:g ~defs ~def_real_uses ~def_phi_uses ~scalar;
  }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(** The SSA definition reaching the use of [var] at CFG node [node]. *)
let reaching_def_at (t : t) ~(node : int) ~(var : string) : def_id option =
  Hashtbl.find_opt t.use_def (node, var)

(** The real definition of [var] at [node], if that node defines it. *)
let def_at (t : t) ~(node : int) ~(var : string) : def_id option =
  Hashtbl.find_opt t.node_def (node, var)

(** All real uses transitively reached by definition [d] of a scalar
    through φ-functions, sorted; [Invalid_argument] for an array's. *)
let reached_uses (t : t) (d : def_id) : use_info list =
  match t.reached.(d) with
  | Some uses -> uses
  | None -> invalid_arg "Ssa.reached_uses: a definition of an array"

(** All real (or entry) definitions whose value may reach the use of
    [var] at [node], collapsing φ-functions. *)
let reaching_defs (t : t) ~(node : int) ~(var : string) : def_id list =
  match reaching_def_at t ~node ~var with
  | None -> []
  | Some d0 ->
      let visited = Hashtbl.create 16 in
      let out = ref [] in
      let rec go d =
        if not (Hashtbl.mem visited d) then begin
          Hashtbl.replace visited d ();
          match t.defs.(d) with
          | Entry_def _ | Node_def _ -> out := d :: !out
          | Phi { args; _ } -> List.iter (fun (_, a) -> go a) args
        end
      in
      go d0;
      List.sort compare !out

(** All real definitions of variable [var] (excluding the entry def). *)
let defs_of_var (t : t) (var : string) : def_id list =
  let out = ref [] in
  Array.iteri
    (fun i site ->
      match site with
      | Node_def { var = v; _ } when String.equal v var -> out := i :: !out
      | Node_def _ | Entry_def _ | Phi _ -> ())
    t.defs;
  List.rev !out

let pp_def (t : t) ppf (d : def_id) =
  match t.defs.(d) with
  | Entry_def v -> Fmt.pf ppf "%s@@entry" v
  | Node_def { node; var } -> Fmt.pf ppf "%s@@n%d" var node
  | Phi { node; var; args } ->
      Fmt.pf ppf "%s@@phi%d(%a)" var node
        Fmt.(list ~sep:comma (pair ~sep:(any ":") int int))
        args
