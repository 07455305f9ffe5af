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
    are computed once, when the SSA is built.

    The builder interns the program's variable names once, and keeps
    every per-node table (the reaching definition of each use, the real
    definitions, the φs) in flat arrays indexed by node, so neither
    construction nor a query allocates or hashes a (node, name) key. *)

open Hpf_lang

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

(* Node [i]'s entries of a table lie at [start.(i)] to [start.(i+1) - 1]
   of its def ids; a use, a real definition or a φ is known by its
   definition, which names the variable. *)
type tables = {
  use_start : int array;
  use_def : def_id array;
      (** the definition reaching each use, -1 at an unreachable node *)
  real_start : int array;
  real_defs : def_id array;  (** the real definitions each node makes *)
  phi_start : int array;
  phis : def_id array;  (** the φs at each node, in variable order *)
}

type t = {
  cfg : Cfg.t;
  dom : Dom.t;
  defs : def_site array;
  tables : tables;
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

(* Sorted int lists as sets; a union returns one of its arguments
   whenever the other adds nothing, so merged answers share their
   records. *)
let rec subset a b =
  match (a, b) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs, y :: ys -> if x = y then subset xs ys else x > y && subset a ys

let rec union_sorted a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
      if x < y then x :: union_sorted xs b
      else if y < x then y :: union_sorted a ys
      else x :: union_sorted xs ys

let union_ints a b =
  if subset b a then a else if subset a b then b else union_sorted a b

(* Two answers, each sorted by use node, merged; a node in both crosses
   the union of their heads. *)
let rec merge_uses (a : use_info list) (b : use_info list) : use_info list =
  match (a, b) with
  | [], l | l, [] -> l
  | u :: us, w :: ws ->
      if u.use_node < w.use_node then u :: merge_uses us b
      else if w.use_node < u.use_node then w :: merge_uses a ws
      else
        let crossed = union_ints u.back_edges w.back_edges in
        (if crossed == u.back_edges then u
         else if crossed == w.back_edges then w
         else { u with back_edges = crossed })
        :: merge_uses us ws

(* [extra] added to the heads every use of [l] crossed. *)
let add_crossed (extra : int list) (l : use_info list) : use_info list =
  if extra = [] then l
  else
    List.map
      (fun u ->
        let crossed = union_ints extra u.back_edges in
        if crossed == u.back_edges then u else { u with back_edges = crossed })
      l

(* A table over [0 .. n-1], entry [k] at [ids.(start.(k))] to
   [ids.(start.(k+1) - 1)]. *)
type csr = { start : int array; ids : int array }

(* The CSR of [count k] entries per key, filled by [fill], which calls
   [put k x] for every entry, in the order each key's entries should
   keep. *)
let csr ~(n : int) ~(count : (int -> unit) -> unit)
    ~(fill : (int -> int -> unit) -> unit) : csr =
  let start = Array.make (n + 1) 0 in
  count (fun k -> start.(k + 1) <- start.(k + 1) + 1);
  for k = 1 to n do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let ids = Array.make start.(n) 0 and next = Array.sub start 0 (max 1 n) in
  fill (fun k x ->
      ids.(next.(k)) <- x;
      next.(k) <- next.(k) + 1);
  { start; ids }

(* The reached uses of every definition of a scalar, in one pass over
   the φ graph.  Its edges run from a definition to each φ it feeds,
   labelled with the φ's loop head when they enter along that loop's
   back edge.  A use's crossed heads are the union of the labels over
   all walks from the definition to the use, so the members of one
   strongly connected component answer alike: every use the component
   reaches collects all labels inside it, and an edge leaving it adds
   those and its own label to everything its target reaches.  Tarjan's
   algorithm finishes the components sinks first, so each one merges
   finished answers; it runs on explicit stacks, since a φ chain is as
   long as the program.  [uses] holds the nodes reading each
   definition, ascending; [edges] the φs it feeds, and [label] each
   edge's crossed loop head or -1.  Only the definitions [scalar]
   selects are answered and have edges: arrays have the largest φ webs
   and nothing asks about them. *)
let reached_table ~(n : int) ~(scalar : def_id -> bool)
    ~(var_of : def_id -> string) ~(uses : csr) ~(edges : csr)
    ~(label : int array) : use_info list option array =
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false and comp = Array.make n (-1) in
  let comp_uses = Array.make n [] and reached = Array.make n None in
  (* [calls]: the walk's stack, [next.(d)] the next edge of [d] to
     follow; [tarjan]: the component stack *)
  let calls = Array.make n 0 and next = Array.make n 0 in
  let tarjan = Array.make n 0 in
  let n_calls = ref 0 and n_tarjan = ref 0 in
  let counter = ref 0 and n_comps = ref 0 in
  let finish ~(bottom : int) =
    let c = !n_comps in
    incr n_comps;
    for k = bottom to !n_tarjan - 1 do
      comp.(tarjan.(k)) <- c
    done;
    let inner = ref [] in
    for k = bottom to !n_tarjan - 1 do
      let d = tarjan.(k) in
      for e = edges.start.(d) to edges.start.(d + 1) - 1 do
        if comp.(edges.ids.(e)) = c && label.(e) >= 0 then
          inner := union_ints [ label.(e) ] !inner
      done
    done;
    let inner = !inner and var = var_of tarjan.(bottom) in
    (* every answer merged below already holds [inner] *)
    let answer = ref [] in
    for k = bottom to !n_tarjan - 1 do
      let d = tarjan.(k) in
      let own = ref [] in
      for j = uses.start.(d + 1) - 1 downto uses.start.(d) do
        own :=
          { use_node = uses.ids.(j); use_var = var; back_edges = inner }
          :: !own
      done;
      answer := merge_uses !answer !own;
      for e = edges.start.(d) to edges.start.(d + 1) - 1 do
        let w = edges.ids.(e) in
        if comp.(w) <> c then
          let extra =
            if label.(e) >= 0 then union_ints [ label.(e) ] inner else inner
          in
          answer := merge_uses !answer (add_crossed extra comp_uses.(comp.(w)))
      done
    done;
    comp_uses.(c) <- !answer;
    let some = Some !answer in
    for k = bottom to !n_tarjan - 1 do
      let d = tarjan.(k) in
      reached.(d) <- some;
      on_stack.(d) <- false
    done;
    n_tarjan := bottom
  in
  let start d =
    index.(d) <- !counter;
    low.(d) <- !counter;
    incr counter;
    tarjan.(!n_tarjan) <- d;
    incr n_tarjan;
    on_stack.(d) <- true;
    next.(d) <- edges.start.(d);
    calls.(!n_calls) <- d;
    incr n_calls
  in
  let run () =
    while !n_calls > 0 do
      let v = calls.(!n_calls - 1) in
      if next.(v) < edges.start.(v + 1) then begin
        let w = edges.ids.(next.(v)) in
        next.(v) <- next.(v) + 1;
        if index.(w) < 0 then start w
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
      end
      else begin
        if low.(v) = index.(v) then begin
          let bottom = ref (!n_tarjan - 1) in
          while tarjan.(!bottom) <> v do
            decr bottom
          done;
          finish ~bottom:!bottom
        end;
        decr n_calls;
        if !n_calls > 0 then
          let p = calls.(!n_calls - 1) in
          low.(p) <- min low.(p) low.(v)
      end
    done
  in
  for d = 0 to n - 1 do
    if scalar d && index.(d) < 0 then begin
      start d;
      run ()
    end
  done;
  reached

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* A growable int array. *)
type ints = { mutable a : int array; mutable len : int }

let push_int (b : ints) (x : int) =
  if b.len = Array.length b.a then begin
    let grown = Array.make (max 16 (2 * b.len)) 0 in
    Array.blit b.a 0 grown 0 b.len;
    b.a <- grown
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

let contents (b : ints) = Array.sub b.a 0 b.len

(* Each node's defs and uses are read once, as interned names in flat
   tables; each variable's def sites are collected once, and the φs
   kept per node in variable order, so placement and renaming touch
   only what a node mentions and the φs it and its successors carry.
   Def ids number the entry values, then the real defs in node order,
   then the φs variable by variable in the order their iterated
   frontier reaches them. *)
let build (g : Cfg.t) : t =
  let dom = Dom.compute g in
  let n = Cfg.n_nodes g in
  let reachable i = dom.rpo_index.(i) >= 0 in
  let prog = g.Cfg.prog in
  (* intern every name a node reads or writes ({!Cfg.iter_vars}), in
     order of appearance, into flat per-node tables, a node's uses
     without repeats *)
  let ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let names = ref [] and last_use = { a = [||]; len = 0 } in
  let intern v =
    match Hashtbl.find_opt ids v with
    | Some k -> k
    | None ->
        let k = Hashtbl.length ids in
        Hashtbl.replace ids v k;
        names := v :: !names;
        push_int last_use (-1);
        k
  in
  let use_start = Array.make (n + 1) 0 and uses = { a = [||]; len = 0 } in
  let def_start = Array.make (n + 1) 0 and defs_of = { a = [||]; len = 0 } in
  let node = ref 0 in
  let read v =
    let k = intern v in
    if last_use.a.(k) <> !node then begin
      last_use.a.(k) <- !node;
      push_int uses k
    end
  and write v = push_int defs_of (intern v) in
  for i = 0 to n - 1 do
    node := i;
    Cfg.iter_vars g i ~read ~write;
    use_start.(i + 1) <- uses.len;
    def_start.(i + 1) <- defs_of.len
  done;
  (* the variables, sorted; [id] maps an interned name to its
     variable *)
  let name_of = Array.of_list (List.rev !names) in
  let order = Array.init (Array.length name_of) Fun.id in
  Array.sort (fun a b -> String.compare name_of.(a) name_of.(b)) order;
  let vars = Array.map (fun k -> name_of.(k)) order in
  let m = Array.length vars in
  let id = Array.make m (-1) in
  Array.iteri (fun v k -> id.(k) <- v) order;
  let use_var = Array.init uses.len (fun j -> id.(uses.a.(j))) in
  (* def ids: entry values are [0 .. m-1], then the real defs *)
  let defs_rev = ref [] and def_var = { a = [||]; len = 0 } in
  let new_def site v =
    let d = def_var.len in
    defs_rev := site :: !defs_rev;
    push_int def_var v;
    d
  in
  Array.iteri (fun v name -> ignore (new_def (Entry_def name) v)) vars;
  (* real defs, and each variable's def sites (reversed) *)
  let real_start = Array.make (n + 1) 0 and real = { a = [||]; len = 0 } in
  let sites = Array.make m [] in
  for i = 0 to n - 1 do
    if reachable i then
      for j = def_start.(i) to def_start.(i + 1) - 1 do
        let v = id.(defs_of.a.(j)) in
        push_int real (new_def (Node_def { node = i; var = vars.(v) }) v);
        match sites.(v) with
        | i' :: _ when i' = i -> ()
        | l -> sites.(v) <- i :: l
      done;
    real_start.(i + 1) <- real.len
  done;
  let real_defs = contents real in
  (* φ placement: iterated dominance frontier of def sites (incl. entry);
     the marks hold the variable they were set for, and the worklist is
     a FIFO over one array, since a node enters it once per variable *)
  let on_work = Array.make n (-1) and has_phi = Array.make n (-1) in
  let work = Array.make (max 1 n) 0 and tail = ref 0 in
  let phis_rev = Array.make n [] and n_phis = ref 0 in
  let enqueue v i =
    if on_work.(i) <> v then begin
      work.(!tail) <- i;
      incr tail;
      on_work.(i) <- v
    end
  in
  let rec place v = function
    | [] -> ()
    | y :: ys ->
        if has_phi.(y) <> v && reachable y then begin
          has_phi.(y) <- v;
          let d = new_def (Phi { node = y; var = vars.(v); args = [] }) v in
          phis_rev.(y) <- d :: phis_rev.(y);
          incr n_phis;
          enqueue v y
        end;
        place v ys
  in
  let rec enqueue_sites v = function
    | [] -> ()
    | i :: is ->
        enqueue_sites v is;
        enqueue v i
  in
  for v = 0 to m - 1 do
    tail := 0;
    enqueue_sites v sites.(v);
    (* entry node is also a def site (Entry_def) *)
    enqueue v g.entry;
    let head = ref 0 in
    while !head < !tail do
      let x = work.(!head) in
      incr head;
      place v dom.frontiers.(x)
    done
  done;
  let phi_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    phi_start.(i + 1) <- phi_start.(i) + List.length phis_rev.(i)
  done;
  let phis = Array.make !n_phis 0 in
  Array.iteri
    (fun i l ->
      List.iteri (fun k d -> phis.(phi_start.(i + 1) - 1 - k) <- d) l)
    phis_rev;
  let defs = Array.of_list (List.rev !defs_rev) in
  let def_var = contents def_var in
  let n_defs = Array.length defs in
  (* renaming: [cur.(v)] is the definition on top of [v]'s stack, and
     [below.(d)] the one [d] covers while pushed *)
  let cur = Array.init m Fun.id and below = Array.make n_defs (-1) in
  let use_def = Array.make (Array.length use_var) (-1) in
  let push d =
    let v = def_var.(d) in
    below.(d) <- cur.(v);
    cur.(v) <- d
  in
  let pop d = cur.(def_var.(d)) <- below.(d) in
  let rec fill_args i = function
    | [] -> ()
    | s :: succs ->
        for j = phi_start.(s) to phi_start.(s + 1) - 1 do
          match defs.(phis.(j)) with
          | Phi p ->
              if not (List.mem_assoc i p.args) then
                p.args <- (i, cur.(def_var.(phis.(j)))) :: p.args
          | Entry_def _ | Node_def _ -> assert false
        done;
        fill_args i succs
  in
  let rec rename (i : int) =
    (* φ defs first *)
    for j = phi_start.(i) to phi_start.(i + 1) - 1 do
      push phis.(j)
    done;
    (* uses see pre-def values (after φ) *)
    for j = use_start.(i) to use_start.(i + 1) - 1 do
      use_def.(j) <- cur.(use_var.(j))
    done;
    (* real defs *)
    for j = real_start.(i) to real_start.(i + 1) - 1 do
      push real_defs.(j)
    done;
    fill_args i (Cfg.node g i).succs;
    (* recurse into dominator-tree children *)
    List.iter rename dom.children.(i);
    for j = real_start.(i + 1) - 1 downto real_start.(i) do
      pop real_defs.(j)
    done;
    for j = phi_start.(i + 1) - 1 downto phi_start.(i) do
      pop phis.(j)
    done
  in
  rename g.entry;
  (* the reached-use graph: real uses by definition, φ edges *)
  let array_var = Array.map (Ast.is_array prog) vars in
  let scalar d = not array_var.(def_var.(d)) in
  let each_use f =
    for i = 0 to n - 1 do
      for j = use_start.(i) to use_start.(i + 1) - 1 do
        let d = use_def.(j) in
        if d >= 0 && scalar d then f d i
      done
    done
  in
  let uses_of =
    csr ~n:n_defs
      ~count:(fun put -> each_use (fun d _ -> put d))
      ~fill:(fun put -> each_use put)
  in
  let each_edge f =
    Array.iteri
      (fun phi site ->
        match site with
        | Phi { node; args; _ } when scalar phi ->
            List.iter (fun (pred, d) -> f d phi pred node) args
        | Phi _ | Entry_def _ | Node_def _ -> ())
      defs
  in
  let edge_csr entry =
    csr ~n:n_defs
      ~count:(fun put -> each_edge (fun d _ _ _ -> put d))
      ~fill:(fun put ->
        each_edge (fun d phi pred node -> put d (entry phi pred node)))
  in
  let edges = edge_csr (fun phi _ _ -> phi) in
  let labels =
    edge_csr (fun _ pred node -> if is_back_edge g ~pred ~node then node else -1)
  in
  {
    cfg = g;
    dom;
    defs;
    tables =
      {
        use_start;
        use_def;
        real_start;
        real_defs;
        phi_start;
        phis;
      };
    reached =
      reached_table ~n:n_defs ~scalar
        ~var_of:(fun d -> vars.(def_var.(d)))
        ~uses:uses_of ~edges ~label:labels.ids;
  }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* The definition of [var] among [ids.(j)], [j] up to [stop]. *)
let rec find_in (t : t) (ids : def_id array) ~stop ~var j : def_id option =
  if j >= stop then None
  else
    let d = ids.(j) in
    if d >= 0 && String.equal (def_var t d) var then Some d
    else find_in t ids ~stop ~var (j + 1)

(* Node [node]'s entry for [var] in a per-node table. *)
let find_at (t : t) (start : int array) ids ~node ~var : def_id option =
  if node < 0 || node + 1 >= Array.length start then None
  else find_in t ids ~stop:start.(node + 1) ~var start.(node)

(** The SSA definition reaching the use of [var] at CFG node [node]. *)
let reaching_def_at (t : t) ~(node : int) ~(var : string) : def_id option =
  find_at t t.tables.use_start t.tables.use_def ~node ~var

(** The real definition of [var] at [node], if that node defines it. *)
let def_at (t : t) ~(node : int) ~(var : string) : def_id option =
  find_at t t.tables.real_start t.tables.real_defs ~node ~var

(** The φ-function for [var] at [node], if one was placed there. *)
let phi_at (t : t) ~(node : int) ~(var : string) : def_id option =
  find_at t t.tables.phi_start t.tables.phis ~node ~var

(** Fold over every use of a reachable node, in node order, with the
    definition reaching it. *)
let fold_uses (t : t) (f : node:int -> var:string -> def_id -> 'a -> 'a)
    (init : 'a) : 'a =
  let { use_start; use_def; _ } = t.tables in
  let acc = ref init in
  for node = 0 to Array.length use_start - 2 do
    for j = use_start.(node) to use_start.(node + 1) - 1 do
      let d = use_def.(j) in
      if d >= 0 then acc := f ~node ~var:(def_var t d) d !acc
    done
  done;
  !acc

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
