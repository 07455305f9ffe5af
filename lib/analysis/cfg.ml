(** Control-flow graph construction for kernel-language programs.

    The structured AST is lowered to an explicit CFG so that the classical
    SSA construction of Cytron et al. (the paper's reference [5]) can be
    used unchanged.  A [DO] loop expands into:

    {v
      Loop_init (index := lo)
        -> Loop_head (trip test) -> first body node ... -> Loop_step -> Loop_head
                                 -> Join (loop exit)
    v}

    [EXIT] jumps to the loop's exit join, [CYCLE] to its [Loop_step]. *)

open Hpf_lang

type node_kind =
  | Entry
  | Exit_node
  | Simple of Ast.stmt  (** [Assign], [Exit], [Cycle] *)
  | Branch of Ast.stmt  (** [If] condition evaluation *)
  | Loop_init of Ast.stmt  (** index := lo *)
  | Loop_head of Ast.stmt  (** trip test *)
  | Loop_step of Ast.stmt  (** index := index + step *)
  | Join of Ast.stmt_id option
      (** merge point after an [If] or a loop exit *)

type node = {
  id : int;
  kind : node_kind;
  mutable succs : int list;
  mutable preds : int list;
}

type t = {
  prog : Ast.program;
  nodes : node array;
  entry : int;
  exit_ : int;
  by_sid : (Ast.stmt_id, int list) Hashtbl.t;
      (** statement id -> CFG nodes that came from it *)
}

let node (g : t) (i : int) = g.nodes.(i)
let n_nodes (g : t) = Array.length g.nodes

(** Statement id a node originates from, if any. *)
let sid_of_node (g : t) (i : int) : Ast.stmt_id option =
  match g.nodes.(i).kind with
  | Entry | Exit_node -> None
  | Simple s | Branch s | Loop_init s | Loop_head s | Loop_step s ->
      Some s.sid
  | Join sid -> sid

(** Statement a node evaluates, if any ([Join]s only merge). *)
let stmt_of_node (g : t) (i : int) : Ast.stmt option =
  match g.nodes.(i).kind with
  | Simple s | Branch s | Loop_init s | Loop_head s | Loop_step s -> Some s
  | Entry | Exit_node | Join _ -> None

let nodes_of_sid (g : t) (sid : Ast.stmt_id) : int list =
  match Hashtbl.find_opt g.by_sid sid with Some l -> List.rev l | None -> []

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Nodes live in a doubling array indexed by id, so an edge looks its
   endpoints up in O(1).  Edges are consed onto the node's lists and
   the lists reversed once at the end, which keeps insertion order. *)
type builder = {
  mutable buf : node array;
  mutable count : int;
  b_by_sid : (Ast.stmt_id, int list) Hashtbl.t;
}

let new_node (b : builder) kind : int =
  let id = b.count in
  let n = { id; kind; succs = []; preds = [] } in
  if id = Array.length b.buf then begin
    let grown = Array.make (max 16 (2 * id)) n in
    Array.blit b.buf 0 grown 0 id;
    b.buf <- grown
  end;
  b.buf.(id) <- n;
  b.count <- id + 1;
  (match kind with
  | Entry | Exit_node | Join None -> ()
  | Simple s | Branch s | Loop_init s | Loop_head s | Loop_step s ->
      let cur =
        match Hashtbl.find_opt b.b_by_sid s.sid with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace b.b_by_sid s.sid (id :: cur)
  | Join (Some sid) ->
      let cur =
        match Hashtbl.find_opt b.b_by_sid sid with Some l -> l | None -> []
      in
      Hashtbl.replace b.b_by_sid sid (id :: cur));
  id

let add_edge (b : builder) (src : int) (dst : int) =
  let s = b.buf.(src) and d = b.buf.(dst) in
  if not (List.mem dst s.succs) then s.succs <- dst :: s.succs;
  if not (List.mem src d.preds) then d.preds <- src :: d.preds

(** Environment of enclosing loops while building: innermost first. *)
type loop_ctx = {
  lname : string option;
  step_node : int;
  exit_join : int;
}

let find_loop_ctx env name =
  match name with
  | None -> ( match env with [] -> None | c :: _ -> Some c)
  | Some n -> List.find_opt (fun c -> c.lname = Some n) env

exception Malformed of string

let build (prog : Ast.program) : t =
  let b = { buf = [||]; count = 0; b_by_sid = Hashtbl.create 64 } in
  let entry = new_node b Entry in
  let rec seq (stmts : Ast.stmt list) (cur : int option) env : int option =
    List.fold_left (fun cur s -> stmt s cur env) cur stmts
  and stmt (s : Ast.stmt) (cur : int option) env : int option =
    match (s.node, cur) with
    | _, None ->
        (* unreachable code after exit/cycle: still create nodes so every
           statement has a CFG image, but leave them unconnected *)
        let _ = stmt s (Some (new_node b (Join None))) env in
        None
    | Ast.Assign _, Some c ->
        let n = new_node b (Simple s) in
        add_edge b c n;
        Some n
    | Ast.Exit name, Some c -> (
        let n = new_node b (Simple s) in
        add_edge b c n;
        match find_loop_ctx env name with
        | Some ctx ->
            add_edge b n ctx.exit_join;
            None
        | None -> raise (Malformed "exit outside loop"))
    | Ast.Cycle name, Some c -> (
        let n = new_node b (Simple s) in
        add_edge b c n;
        match find_loop_ctx env name with
        | Some ctx ->
            add_edge b n ctx.step_node;
            None
        | None -> raise (Malformed "cycle outside loop"))
    | Ast.If (_, t, e), Some c ->
        let br = new_node b (Branch s) in
        add_edge b c br;
        let jt = seq t (Some br) env in
        let je = seq e (Some br) env in
        if jt = None && je = None then None
        else begin
          let j = new_node b (Join (Some s.sid)) in
          (match jt with Some n -> add_edge b n j | None -> ());
          (match je with Some n -> add_edge b n j | None -> ());
          Some j
        end
    | Ast.Do d, Some c ->
        let init = new_node b (Loop_init s) in
        add_edge b c init;
        let head = new_node b (Loop_head s) in
        add_edge b init head;
        let step = new_node b (Loop_step s) in
        let exit_join = new_node b (Join (Some s.sid)) in
        let env' =
          { lname = d.loop_name; step_node = step; exit_join } :: env
        in
        (match seq d.body (Some head) env' with
        | Some last -> add_edge b last step
        | None -> ());
        add_edge b step head;
        add_edge b head exit_join;
        Some exit_join
  in
  let last = seq prog.body (Some entry) [] in
  let exit_ = new_node b Exit_node in
  (match last with Some n -> add_edge b n exit_ | None -> ());
  let nodes = Array.sub b.buf 0 b.count in
  Array.iter
    (fun n ->
      n.succs <- List.rev n.succs;
      n.preds <- List.rev n.preds)
    nodes;
  { prog; nodes; entry; exit_; by_sid = b.b_by_sid }

(* ------------------------------------------------------------------ *)
(* Defs and uses per node                                              *)
(* ------------------------------------------------------------------ *)

(** Is [v] a variable tracked by SSA (i.e. not a compile-time parameter)?
    Loop indices and undeclared scalars are tracked. *)
let tracked (g : t) (v : string) : bool =
  Ast.param_value g.prog v = None

(** The variables node [i] reads and writes, without building lists:
    [read] gets each tracked variable its expressions read, once per
    occurrence, and [write] each variable it writes.  An array-element
    assignment writes the array name and also reads it (update
    semantics); a loop's index is written whatever its name. *)
let iter_vars (g : t) (i : int) ~(read : string -> unit)
    ~(write : string -> unit) : unit =
  let read v = if tracked g v then read v in
  let expr =
    Ast.iter_expr (function Ast.Var v -> read v | Ast.Arr (a, _) -> read a | _ -> ())
  in
  match g.nodes.(i).kind with
  | Simple { node = Assign (LVar v, rhs); _ } ->
      expr rhs;
      if tracked g v then write v
  | Simple { node = Assign (LArr (a, subs), rhs); _ } ->
      read a;
      expr rhs;
      List.iter expr subs;
      if tracked g a then write a
  | Branch { node = If (c, _, _); _ } -> expr c
  | Loop_init { node = Do d; _ } ->
      expr d.lo;
      write d.index
  | Loop_head { node = Do d; _ } ->
      read d.index;
      expr d.hi;
      expr d.step
  | Loop_step { node = Do d; _ } ->
      read d.index;
      expr d.step;
      write d.index
  | Simple _ | Branch _ | Loop_init _ | Loop_head _ | Loop_step _
  | Join _ | Entry | Exit_node ->
      ()

(** Variables defined (written) by a node.  An array-element assignment
    defines the array name (update semantics: it also {e uses} it). *)
let defs (g : t) (i : int) : string list =
  let acc = ref [] in
  iter_vars g i ~read:ignore ~write:(fun v -> acc := v :: !acc);
  List.rev !acc

(** Variables used (read) by a node, sorted. *)
let uses (g : t) (i : int) : string list =
  let acc = ref [] in
  iter_vars g i ~read:(fun v -> acc := v :: !acc) ~write:ignore;
  List.sort_uniq String.compare !acc

(** All tracked variables appearing in the program (defs or uses). *)
let variables (g : t) : string list =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun n ->
      List.iter (fun v -> Hashtbl.replace tbl v ()) (defs g n.id);
      List.iter (fun v -> Hashtbl.replace tbl v ()) (uses g n.id))
    g.nodes;
  Hashtbl.fold (fun v () acc -> v :: acc) tbl [] |> List.sort String.compare

(** Reverse postorder of reachable nodes from entry. *)
let reverse_postorder (g : t) : int list =
  let visited = Array.make (n_nodes g) false in
  let order = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter dfs g.nodes.(i).succs;
      order := i :: !order
    end
  in
  dfs g.entry;
  !order

let is_reachable (g : t) : bool array =
  let r = Array.make (n_nodes g) false in
  List.iter (fun i -> r.(i) <- true) (reverse_postorder g);
  r

let pp_kind ppf = function
  | Entry -> Fmt.string ppf "entry"
  | Exit_node -> Fmt.string ppf "exit"
  | Simple s -> Fmt.pf ppf "s%d" s.sid
  | Branch s -> Fmt.pf ppf "if%d" s.sid
  | Loop_init s -> Fmt.pf ppf "init%d" s.sid
  | Loop_head s -> Fmt.pf ppf "head%d" s.sid
  | Loop_step s -> Fmt.pf ppf "step%d" s.sid
  | Join (Some sid) -> Fmt.pf ppf "join%d" sid
  | Join None -> Fmt.string ppf "join"

let pp ppf (g : t) =
  Array.iter
    (fun n ->
      Fmt.pf ppf "%d[%a] -> %a@." n.id pp_kind n.kind
        Fmt.(list ~sep:(any ", ") int)
        n.succs)
    g.nodes
