(** Loop-nest structure: enclosing-loop context for every statement.

    The paper's analyses constantly ask "what loops surround this
    statement, outermost first?" and "what is the nesting level of loop
    [l]?".  Nesting levels follow the paper's convention: the outermost
    loop of a nest is level 1, level 0 denotes "outside all loops".

    {!build} also indexes, in the same walk, every statement by id and
    every loop's assignments by base and nested loop indices, so
    statement lookups, the dependence queries of communication placement
    ({!Hpf_analysis.Depend}) and "is [x] written inside loop [l]" read a
    table instead of walking the program. *)

open Ast

type loop_info = {
  loop_sid : stmt_id;
  loop : do_loop;
  level : int;  (** 1-based nesting depth *)
}

type t = {
  enclosing : (stmt_id, loop_info list) Hashtbl.t;
      (** per statement: enclosing loops, outermost first; for a [Do]
          statement this does {e not} include the loop itself *)
  loops : loop_info list;  (** all loops in preorder *)
  parent : (stmt_id, stmt_id) Hashtbl.t;
      (** innermost enclosing structured statement (loop or if) *)
  stmts : (stmt_id, stmt) Hashtbl.t;  (** every statement by id *)
  writes : (stmt_id, (string, stmt list) Hashtbl.t) Hashtbl.t;
      (** per loop: the assignments inside its body, nested loops
          included, by assigned base, in program order *)
  indices : (stmt_id, (string, unit) Hashtbl.t) Hashtbl.t;
      (** per loop: its own index and those of the loops nested in it *)
}

let build (p : program) : t =
  let enclosing = Hashtbl.create 64 in
  let parent = Hashtbl.create 64 in
  let stmts = Hashtbl.create 64 in
  let writes = Hashtbl.create 16 and indices = Hashtbl.create 16 in
  let loops = ref [] in
  (* [ctx]: the enclosing loops innermost first, each with its write
     table (filled in reverse program order, reversed below); [outer]:
     the same loops outermost first, shared by the statements of one
     body *)
  let rec go ctx outer parent_sid body =
    List.iter
      (fun s ->
        Hashtbl.replace enclosing s.sid outer;
        Hashtbl.replace stmts s.sid s;
        (match parent_sid with
        | Some psid -> Hashtbl.replace parent s.sid psid
        | None -> ());
        match s.node with
        | Assign ((LVar base | LArr (base, _)), _) ->
            List.iter
              (fun (_, tbl) ->
                Hashtbl.replace tbl base
                  (s :: Option.value ~default:[] (Hashtbl.find_opt tbl base)))
              ctx
        | Exit _ | Cycle _ -> ()
        | If (_, t, e) ->
            let psid = Some s.sid in
            go ctx outer psid t;
            go ctx outer psid e
        | Do d ->
            let info =
              { loop_sid = s.sid; loop = d; level = List.length ctx + 1 }
            in
            let tbl = Hashtbl.create 8 and own = Hashtbl.create 4 in
            Hashtbl.replace writes s.sid tbl;
            Hashtbl.replace indices s.sid own;
            List.iter
              (fun (li, _) ->
                Hashtbl.replace (Hashtbl.find indices li.loop_sid) d.index ())
              ((info, tbl) :: ctx);
            loops := info :: !loops;
            go ((info, tbl) :: ctx) (outer @ [ info ]) (Some s.sid) d.body)
      body
  in
  go [] [] None p.body;
  Hashtbl.iter
    (fun _ tbl -> Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) tbl)
    writes;
  { enclosing; loops = List.rev !loops; parent; stmts; writes; indices }

(** Enclosing loops of a statement, outermost first. *)
let enclosing_loops (t : t) (sid : stmt_id) : loop_info list =
  match Hashtbl.find_opt t.enclosing sid with Some l -> l | None -> []

(** Nesting level of a statement = number of enclosing loops. *)
let level (t : t) (sid : stmt_id) : int =
  List.length (enclosing_loops t sid)

(** The loop at nesting level [lv] (1-based) around statement [sid]. *)
let loop_at_level (t : t) (sid : stmt_id) (lv : int) : loop_info option =
  List.nth_opt (enclosing_loops t sid) (lv - 1)

(** The innermost enclosing loop of [sid], if any. *)
let innermost_loop (t : t) (sid : stmt_id) : loop_info option =
  match List.rev (enclosing_loops t sid) with [] -> None | l :: _ -> Some l

let find_loop (t : t) (loop_sid : stmt_id) : loop_info option =
  List.find_opt (fun li -> li.loop_sid = loop_sid) t.loops

(** Does the loop with statement id [loop_sid] enclose statement [sid]?
    True also when [sid] {e is} the loop's own header statement?  No: a
    loop does not enclose itself. *)
let loop_encloses (t : t) ~(loop_sid : stmt_id) (sid : stmt_id) : bool =
  List.exists (fun li -> li.loop_sid = loop_sid) (enclosing_loops t sid)

(** Indices of the loops enclosing [sid], outermost first. *)
let enclosing_indices (t : t) (sid : stmt_id) : string list =
  List.map (fun li -> li.loop.index) (enclosing_loops t sid)

(** Innermost common enclosing loop of two statements, if any. *)
let common_loop (t : t) (a : stmt_id) (b : stmt_id) : loop_info option =
  let la = enclosing_loops t a and lb = enclosing_loops t b in
  let rec go last = function
    | x :: xs, y :: ys when x.loop_sid = y.loop_sid -> go (Some x) (xs, ys)
    | _ -> last
  in
  go None (la, lb)

(** Number of common enclosing loops of two statements. *)
let common_level (t : t) (a : stmt_id) (b : stmt_id) : int =
  match common_loop t a b with Some li -> li.level | None -> 0

(** Does loop variable [v] belong to a loop enclosing [sid]? *)
let is_enclosing_index (t : t) (sid : stmt_id) (v : string) : bool =
  List.mem v (enclosing_indices t sid)

(** Level of the loop with index variable [v] around [sid] (0 if none). *)
let index_level (t : t) (sid : stmt_id) (v : string) : int =
  let rec go n = function
    | [] -> 0
    | li :: _ when String.equal li.loop.index v -> n
    | _ :: tl -> go (n + 1) tl
  in
  go 1 (enclosing_loops t sid)

(** The statement with id [sid]. *)
let find_stmt (t : t) (sid : stmt_id) : stmt option =
  Hashtbl.find_opt t.stmts sid

(** The assignments to [base] inside loop [li] (nested loops included),
    in program order. *)
let writes_in (t : t) (li : loop_info) (base : string) : stmt list =
  match Hashtbl.find_opt t.writes li.loop_sid with
  | None -> []
  | Some tbl -> Option.value ~default:[] (Hashtbl.find_opt tbl base)

(** Is [x] written inside loop [li]: assigned in its body (nested loops
    included), or the index of [li] or of a loop nested in it? *)
let written_in (t : t) (li : loop_info) (x : string) : bool =
  writes_in t li x <> []
  ||
  match Hashtbl.find_opt t.indices li.loop_sid with
  | Some own -> Hashtbl.mem own x
  | None -> false
