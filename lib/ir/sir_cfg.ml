(** Control-flow graph over the lowered SPMD IR.

    {!Sir.program} keeps control flow structured: the executor walks the
    AST skeleton and fires the lowered ops of each statement at every
    statement instance.  The flow analyses of the verifier instead need
    an explicit graph with back edges, so this module linearizes the
    skeleton exactly like {!Hpf_analysis.Cfg} does for the source
    program — a [DO] loop expands into

    {v
      Loop_init (index := lo)
        -> Loop_head (trip test) -> first body node ... -> Loop_step -> Loop_head
                                 -> Join (loop exit)
    v}

    with [EXIT] jumping to the loop's exit join and [CYCLE] to its
    [Loop_step] — and attaches each statement's {!Sir.stmt_ops} to the
    {e instance node}: the unique node at which the executor fires the
    statement's mirror/reduction/communication/exec ops ([Simple] for
    [Assign]/[Exit]/[Cycle], [Branch] for [If], [Loop_init] for [Do] —
    a loop's ops run on arrival, not per iteration). *)

open Hpf_lang

type node_kind =
  | Entry
  | Exit_node
  | Simple of Ast.stmt  (** [Assign], [Exit], [Cycle] *)
  | Branch of Ast.stmt  (** [If] condition evaluation *)
  | Loop_init of Ast.stmt  (** index := lo; the loop's ops fire here *)
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
  program : Sir.program;
  nodes : node array;
  entry : int;
  exit_ : int;
  by_sid : (Ast.stmt_id, int list) Hashtbl.t;
}

let node (g : t) (i : int) = g.nodes.(i)
let n_nodes (g : t) = Array.length g.nodes
let succs (g : t) (i : int) = g.nodes.(i).succs
let preds (g : t) (i : int) = g.nodes.(i).preds

let sid_of_node (g : t) (i : int) : Ast.stmt_id option =
  match g.nodes.(i).kind with
  | Entry | Exit_node -> None
  | Simple s | Branch s | Loop_init s | Loop_head s | Loop_step s ->
      Some s.Ast.sid
  | Join sid -> sid

let nodes_of_sid (g : t) (sid : Ast.stmt_id) : int list =
  match Hashtbl.find_opt g.by_sid sid with Some l -> List.rev l | None -> []

(* The instance node of a statement: where the executor fires its
   lowered ops, once per statement instance. *)
let is_instance_node (k : node_kind) : bool =
  match k with
  | Simple _ | Branch _ | Loop_init _ -> true
  | Entry | Exit_node | Loop_head _ | Loop_step _ | Join _ -> false

let ops_at (g : t) (i : int) : Sir.stmt_ops option =
  match g.nodes.(i).kind with
  | (Simple s | Branch s | Loop_init s) when is_instance_node g.nodes.(i).kind
    ->
      Sir.stmt_ops g.program s.Ast.sid
  | _ -> None

(** Loop index (re)defined at this node ([Loop_init] / [Loop_step]). *)
let index_defined_at (g : t) (i : int) : string option =
  match g.nodes.(i).kind with
  | Loop_init { node = Ast.Do d; _ } | Loop_step { node = Ast.Do d; _ } ->
      Some d.Ast.index
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Nodes live in a doubling array indexed by id, so an edge looks its
   endpoints up in O(1). *)
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
        match Hashtbl.find_opt b.b_by_sid s.Ast.sid with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace b.b_by_sid s.Ast.sid (id :: cur)
  | Join (Some sid) ->
      let cur =
        match Hashtbl.find_opt b.b_by_sid sid with Some l -> l | None -> []
      in
      Hashtbl.replace b.b_by_sid sid (id :: cur));
  id

let get_node (b : builder) (id : int) : node = b.buf.(id)

let add_edge (b : builder) (src : int) (dst : int) =
  let s = get_node b src and d = get_node b dst in
  if not (List.mem dst s.succs) then s.succs <- s.succs @ [ dst ];
  if not (List.mem src d.preds) then d.preds <- d.preds @ [ src ]

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

let build (p : Sir.program) : t =
  let b = { buf = [||]; count = 0; b_by_sid = Hashtbl.create 64 } in
  let entry = new_node b Entry in
  let rec seq (stmts : Ast.stmt list) (cur : int option) env : int option =
    List.fold_left (fun cur s -> stmt s cur env) cur stmts
  and stmt (s : Ast.stmt) (cur : int option) env : int option =
    match (s.Ast.node, cur) with
    | _, None ->
        (* unreachable code after exit/cycle: still create nodes so
           every statement has a CFG image, but leave them unconnected *)
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
          let j = new_node b (Join (Some s.Ast.sid)) in
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
        let exit_join = new_node b (Join (Some s.Ast.sid)) in
        let env' =
          { lname = d.Ast.loop_name; step_node = step; exit_join } :: env
        in
        (match seq d.Ast.body (Some head) env' with
        | Some last -> add_edge b last step
        | None -> ());
        add_edge b step head;
        add_edge b head exit_join;
        Some exit_join
  in
  let last = seq p.Sir.source.Ast.body (Some entry) [] in
  let exit_ = new_node b Exit_node in
  (match last with Some n -> add_edge b n exit_ | None -> ());
  {
    program = p;
    nodes = Array.sub b.buf 0 b.count;
    entry;
    exit_;
    by_sid = b.b_by_sid;
  }

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

let pp_kind ppf = function
  | Entry -> Fmt.string ppf "entry"
  | Exit_node -> Fmt.string ppf "exit"
  | Simple s -> Fmt.pf ppf "s%d" s.Ast.sid
  | Branch s -> Fmt.pf ppf "if%d" s.Ast.sid
  | Loop_init s -> Fmt.pf ppf "init%d" s.Ast.sid
  | Loop_head s -> Fmt.pf ppf "head%d" s.Ast.sid
  | Loop_step s -> Fmt.pf ppf "step%d" s.Ast.sid
  | Join (Some sid) -> Fmt.pf ppf "join%d" sid
  | Join None -> Fmt.string ppf "join"

let pp ppf (g : t) =
  Array.iter
    (fun n ->
      let ops =
        match ops_at g n.id with
        | Some o when o.Sir.comms <> [] ->
            Fmt.str " (%d op(s))" (List.length o.Sir.comms)
        | _ -> ""
      in
      Fmt.pf ppf "%d[%a]%s -> %a@." n.id pp_kind n.kind ops
        Fmt.(list ~sep:(any ", ") int)
        n.succs)
    g.nodes
