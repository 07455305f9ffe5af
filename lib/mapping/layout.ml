(** Resolution of HPF mapping directives into per-array layouts.

    A {e layout} states, for each processor-grid dimension, how an
    array's elements choose their coordinate along that dimension:
    replicated, pinned to a fixed coordinate, or mapped through a
    distribution format applied to an affine function of one array
    subscript.  Alignment chains ([ALIGN B WITH A], [A] itself aligned or
    distributed) are composed into a single such description. *)

open Hpf_lang

type binding =
  | Repl  (** present at every coordinate along this grid dimension *)
  | Fixed of int  (** single fixed coordinate *)
  | Mapped of {
      array_dim : int;  (** which subscript position selects the coord *)
      fmt : Dist.format;
      stride : int;
      offset : int;  (** position = stride * index + offset - dim_lo *)
      dim_lo : int;  (** lower bound of the ultimate target dimension *)
      nprocs : int;
    }

type t = { grid : Grid.t; bindings : binding array }

(** Fully replicated layout (the default for scalars and unmapped
    arrays). *)
let replicated (grid : Grid.t) : t =
  { grid; bindings = Array.make (Grid.rank grid) Repl }

let is_fully_replicated (l : t) =
  Array.for_all (function Repl -> true | Fixed _ | Mapped _ -> false) l.bindings

(** Is the array partitioned (mapped along at least one grid dim)? *)
let is_partitioned (l : t) =
  Array.exists (function Mapped _ -> true | Repl | Fixed _ -> false) l.bindings

(** Grid dimensions along which the layout is [Mapped]. *)
let mapped_dims (l : t) : int list =
  Array.to_list l.bindings
  |> List.mapi (fun g b -> (g, b))
  |> List.filter_map (function g, Mapped _ -> Some g | _ -> None)

let pp_binding ppf = function
  | Repl -> Fmt.string ppf "*"
  | Fixed c -> Fmt.pf ppf "@%d" c
  | Mapped { array_dim; fmt; stride; offset; _ } ->
      if stride = 1 && offset = 0 then
        Fmt.pf ppf "dim%d:%a" array_dim Dist.pp fmt
      else
        Fmt.pf ppf "dim%d*%d%+d:%a" array_dim stride offset Dist.pp fmt

let pp ppf (l : t) =
  Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any ", ") pp_binding) l.bindings

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

type env = {
  prog : Ast.program;
  grid : Grid.t;
  layouts : (string, t) Hashtbl.t;
}

(* Mapping/layout errors carry code E0401 (inconsistent directives) or
   E0402 (invalid processor grid extents) and are raised as Diag.Fatal,
   caught at pass boundaries by the pipeline. *)
let merr ?(code = "E0401") fmt =
  Fmt.kstr (fun s -> raise (Diag.Fatal [ Diag.error ~code s ])) fmt

let layout_of (env : env) (name : string) : t =
  match Hashtbl.find_opt env.layouts name with
  | Some l -> l
  | None -> replicated env.grid

(** The declared grid of a program, if any ([grid_override] replaces its
    extents, e.g. to sweep the processor count in an experiment). *)
let declared_grid ?(grid_override : int list option) (prog : Ast.program) :
    Grid.t option =
  (match grid_override with
  | Some ext when List.exists (fun n -> n < 1) ext ->
      merr ~code:"E0402" "invalid processor grid extents [%s]"
        (String.concat ", " (List.map string_of_int ext))
  | _ -> ());
  let found =
    List.find_map
      (function
        | Ast.Processors { grid; extents } ->
            let ext =
              List.map
                (fun e ->
                  match Ast.const_int_opt prog e with
                  | Some n -> n
                  | None -> merr "non-constant processors extent")
                extents
            in
            Some (grid, ext)
        | Ast.Distribute _ | Ast.Align _ -> None)
      prog.directives
  in
  match (found, grid_override) with
  | Some (name, _), Some ov -> Some (Grid.make ~name ov)
  | Some (name, ext), None -> Some (Grid.make ~name ext)
  | None, Some ov -> Some (Grid.make ov)
  | None, None -> None

let shape_of (prog : Ast.program) (name : string) : Types.shape =
  match Ast.find_decl prog name with
  | Some d -> d.shape
  | None -> merr "no declaration for %s" name

(* Layout from a DISTRIBUTE directive. *)
let distribute_layout (prog : Ast.program) (grid : Grid.t) (array : string)
    (fmts : Ast.dist_format list) : t =
  let shape = shape_of prog array in
  if List.length fmts <> Types.rank shape then
    merr "distribute %s: rank mismatch" array;
  let bindings = Array.make (Grid.rank grid) Repl in
  let gdim = ref 0 in
  List.iteri
    (fun d fmt ->
      match fmt with
      | Ast.Star -> ()
      | _ ->
          if !gdim >= Grid.rank grid then
            merr "distribute %s: more mapped dims than grid rank" array;
          let b : Types.bounds = List.nth shape d in
          let nprocs = Grid.extent grid !gdim in
          let dfmt =
            match Dist.of_ast_format ~extent:(Types.extent b) ~nprocs fmt with
            | Some f -> f
            | None -> assert false
          in
          bindings.(!gdim) <-
            Mapped
              {
                array_dim = d;
                fmt = dfmt;
                stride = 1;
                offset = 0;
                dim_lo = b.Types.lo;
                nprocs;
              };
          incr gdim)
    fmts;
  { grid; bindings }

(* Compose an alignee's layout from its target's layout and the ALIGN
   subscripts. *)
let align_layout (target_layout : t) (subs : Ast.align_sub list) : t =
  let bindings =
    Array.map
      (function
        | Repl -> Repl
        | Fixed c -> Fixed c
        | Mapped m -> (
            match List.nth_opt subs m.array_dim with
            | None -> Repl
            | Some (Ast.A_dim { dum; stride; offset }) ->
                Mapped
                  {
                    m with
                    array_dim = dum;
                    stride = m.stride * stride;
                    offset = (m.stride * offset) + m.offset;
                  }
            | Some (Ast.A_const c) ->
                let pos = (m.stride * c) + m.offset - m.dim_lo in
                Fixed (Dist.owner_coord m.fmt ~nprocs:m.nprocs pos)
            | Some Ast.A_star -> Repl))
      target_layout.bindings
  in
  { grid = target_layout.grid; bindings }

(** Resolve every directive of [prog] into an environment.  [grid]
    supplies or overrides the processor arrangement (mandatory when the
    program declares none but distributes arrays). *)
let resolve ?grid_override (prog : Ast.program) : env =
  let grid =
    match declared_grid ?grid_override prog with
    | Some g -> g
    | None -> Grid.make [ 1 ]
  in
  let env = { prog; grid; layouts = Hashtbl.create 16 } in
  (* distributes first *)
  List.iter
    (function
      | Ast.Distribute { array; fmts; onto = _ } ->
          Hashtbl.replace env.layouts array
            (distribute_layout prog grid array fmts)
      | Ast.Processors _ | Ast.Align _ -> ())
    prog.directives;
  (* align chains: iterate until fixpoint (chains are acyclic per HPF) *)
  let aligns =
    List.filter_map
      (function
        | Ast.Align { alignee; target; subs } -> Some (alignee, target, subs)
        | Ast.Processors _ | Ast.Distribute _ -> None)
      prog.directives
  in
  let pending = ref aligns in
  let progress = ref true in
  while !pending <> [] && !progress do
    progress := false;
    pending :=
      List.filter
        (fun (alignee, target, subs) ->
          let target_resolved =
            Hashtbl.mem env.layouts target
            || not
                 (List.exists (fun (a, _, _) -> String.equal a target) aligns)
          in
          if target_resolved then begin
            let tl = layout_of env target in
            Hashtbl.replace env.layouts alignee (align_layout tl subs);
            progress := true;
            false
          end
          else true)
        !pending
  done;
  if !pending <> [] then merr "cyclic ALIGN chain";
  env

(* ------------------------------------------------------------------ *)
(* Per-processor memory footprint                                      *)
(* ------------------------------------------------------------------ *)

(* A declaration's footprint, resolved once from its layout: [whole] is
   the product of the extents no binding divides (1 for a scalar, 0 when
   undeclared) and [divided] pairs each dimension a Mapped binding
   divides (the first such binding) with that grid dimension and the
   local count at each of its coordinates. *)
type footprint = { whole : int; divided : (int * int array) list }

let footprint (env : env) (name : string) : footprint =
  match Ast.find_decl env.prog name with
  | None -> { whole = 0; divided = [] }
  | Some d when d.Ast.shape = [] -> { whole = 1; divided = [] }
  | Some d ->
      let l = layout_of env name in
      let rec divider ad g =
        if g = Array.length l.bindings then None
        else
          match l.bindings.(g) with
          | Mapped m when m.array_dim = ad -> Some (g, m.fmt, m.nprocs)
          | _ -> divider ad (g + 1)
      in
      List.fold_left
        (fun (f, ad) bounds ->
          let extent = Types.extent bounds in
          match divider ad 0 with
          | None -> ({ f with whole = f.whole * extent }, ad + 1)
          | Some (g, fmt, nprocs) ->
              let counts =
                Array.init (Grid.extent env.grid g) (fun c ->
                    max 1 (Dist.local_count fmt ~nprocs ~extent c))
              in
              ({ f with divided = (g, counts) :: f.divided }, ad + 1))
        ({ whole = 1; divided = [] }, 0)
        d.Ast.shape
      |> fst

let rec footprint_at coords acc = function
  | [] -> acc
  | (g, counts) :: rest -> footprint_at coords (acc * counts.(coords.(g))) rest

(** Number of elements of [name] stored by the processor at [coords]
    under its resolved layout: mapped dimensions contribute their local
    counts, collapsed and replicated dimensions their full extents. *)
let local_elems (env : env) (name : string) (coords : int array) : int =
  let f = footprint env name in
  footprint_at coords f.whole f.divided

(** Per-processor memory footprint in elements: the maximum over
    processors of the sum of local element counts of every declared
    variable, each declaration resolved once. *)
let max_local_elems (env : env) : int =
  let fs =
    List.map (fun (d : Ast.decl) -> footprint env d.Ast.dname) env.prog.decls
  in
  let rec sum coords t = function
    | [] -> t
    | f :: rest -> sum coords (t + footprint_at coords f.whole f.divided) rest
  in
  let best = ref 0 in
  for pid = 0 to Grid.size env.grid - 1 do
    let total = sum (Grid.coords env.grid pid) 0 fs in
    if total > !best then best := total
  done;
  !best
