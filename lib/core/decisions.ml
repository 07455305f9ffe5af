(** Mapping decisions for privatized variables, and their translation into
    ownership specs for communication analysis and SPMD execution.

    This module holds the {e state} that the paper's algorithms
    ({!Mapping_alg}, {!Reduction_map}, {!Array_priv}, {!Ctrl_priv})
    populate:

    - per scalar {e definition} (SSA def id): one of the paper's four
      mappings — replication (default), alignment with a reference,
      privatization without alignment, or the reduction mapping;
    - per (array, loop): full or partial privatization with an alignment
      target;
    - per control-flow statement: whether its execution is privatized.

    It also implements the paper's evaluation rule: "the mapping
    information at a use ... is obtained by accessing the information
    recorded with its first reaching definition". *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping

type scalar_mapping =
  | Replicated  (** default: every processor computes and stores it *)
  | Priv_no_align
      (** privatized without alignment: computed redundantly by the union
          of processors executing the surrounding iteration; viewed as
          replicated by communication analysis (paper §2.1) *)
  | Priv_aligned of { target : Aref.t; level : int }
      (** owned by the owner of [target]; valid within the loop at
          nesting [level] *)
  | Priv_reduction of {
      target : Aref.t;
      repl_grid_dims : int list;
      level : int;
    }
      (** reduction accumulator: replicated along the grid dimensions the
          reduction spans, aligned with [target] elsewhere (paper §2.3) *)

let pp_scalar_mapping ppf = function
  | Replicated -> Fmt.string ppf "replicated"
  | Priv_no_align -> Fmt.string ppf "private (no alignment)"
  | Priv_aligned { target; level } ->
      Fmt.pf ppf "aligned with %a (valid at level %d)" Aref.pp target level
  | Priv_reduction { target; repl_grid_dims; _ } ->
      Fmt.pf ppf "reduction-mapped to %a, replicated on grid dims {%a}"
        Aref.pp target
        Fmt.(list ~sep:(any ", ") int)
        repl_grid_dims

type array_mapping =
  | Arr_priv of { target : Aref.t option }
      (** fully privatized w.r.t. the loop; [None] = without alignment *)
  | Arr_partial_priv of { target : Aref.t; priv_grid_dims : int list }
      (** privatized along [priv_grid_dims], partitioned per the array's
          own directives elsewhere (paper §3.2) *)

let pp_array_mapping ppf = function
  | Arr_priv { target = Some t } -> Fmt.pf ppf "privatized, aligned with %a" Aref.pp t
  | Arr_priv { target = None } -> Fmt.string ppf "privatized (no alignment)"
  | Arr_partial_priv { target; priv_grid_dims } ->
      Fmt.pf ppf "partially privatized on grid dims {%a}, aligned with %a"
        Fmt.(list ~sep:(any ", ") int)
        priv_grid_dims Aref.pp target

(** Knobs corresponding to the optimization levels of the paper's
    evaluation (Tables 1-3). *)
type options = {
  privatize_scalars : bool;
      (** off = the naive "Replication" compiler of Table 1 *)
  force_producer_alignment : bool;
      (** the "Producer Alignment" compiler of Table 1: skip consumer
          selection entirely *)
  reduction_alignment : bool;
      (** paper §2.3; off = the "Default" column of Table 2 *)
  privatize_arrays : bool;  (** off = "No Array Priv." of Table 3 *)
  partial_privatization : bool;
      (** off = "No Partial Priv." of Table 3 *)
  privatize_control : bool;  (** paper §4 *)
  auto_array_priv : bool;
      (** run the automatic (directive-free) array privatization analysis
          of {!Hpf_analysis.Auto_priv} — the paper's future-work item;
          off by default to stay faithful to phpf *)
  optimize : bool;
      (** run the {!Phpf_ir.Sir_opt} pass suite after [lower-spmd] and
          elide compile-time-provable no-op transfers in the emitter;
          on by default ([--no-opt] / [-O0] turn it off — the
          paper-faithful phpf schedule) *)
  opt_passes : string list option;
      (** [Some names] restricts the suite to the named passes
          ([--opt PASS,...]); [None] = all of them *)
}

(** Everything on: the paper's "Selected Alignment" compiler. *)
let default_options : options =
  {
    privatize_scalars = true;
    force_producer_alignment = false;
    reduction_alignment = true;
    privatize_arrays = true;
    partial_privatization = true;
    privatize_control = true;
    auto_array_priv = false;
    optimize = true;
    opt_passes = None;
  }

(* The decision tables are immutable maps behind a single mutable cell:
   the mapping passes grow them through the setters below, the compiler
   freezes the value at the end of the pipeline, and post-compile readers
   can then share a [t] across domains without synchronization. *)
module Def_map = Map.Make (Int)
module Sid_map = Map.Make (Int)

module Arr_map = Map.Make (struct
  type t = string * Ast.stmt_id

  let compare = compare
end)

type tables = {
  t_scalar : scalar_mapping Def_map.t;
  t_arrays : array_mapping Arr_map.t;  (** keyed by (array, loop sid) *)
  t_ctrl : bool Sid_map.t;  (** If sid -> privatized *)
  t_no_align_rev : Ssa.def_id list;
      (** paper Fig. 3 deferred list, reverse push order *)
}

type t = {
  prog : Ast.program;
  nest : Nest.t;
  deps : Depend.t;
  ssa : Ssa.t;
  priv : Privatizable.t;
  env : Layout.env;
  reductions : Reduction.red list;
  options : options;
  mutable tables : tables;
  mutable frozen : bool;
}

let create ?grid_override ?(options = default_options) ?ssa
    (prog : Ast.program) : t =
  let nest = Nest.build prog in
  let deps = Depend.build prog nest in
  (* Induction hands over its SSA when it left the program unchanged.
     After a rewrite the CFG nodes carry the old statements, so
     re-pointing the replaced uses would rebuild the CFG, and the SSA
     is built afresh. *)
  let ssa =
    match ssa with
    | Some (s : Ssa.t) when s.Ssa.cfg.Cfg.prog == prog -> s
    | Some _ | None -> Ssa.build (Cfg.build prog)
  in
  let priv = Privatizable.make nest prog ssa in
  let env = Layout.resolve ?grid_override prog in
  let reductions = Reduction.analyze nest prog in
  {
    prog;
    nest;
    deps;
    ssa;
    priv;
    env;
    reductions;
    options;
    tables =
      {
        t_scalar = Def_map.empty;
        t_arrays = Arr_map.empty;
        t_ctrl = Sid_map.empty;
        t_no_align_rev = [];
      };
    frozen = false;
  }

(* ------------------------------------------------------------------ *)
(* Freeze discipline                                                   *)
(* ------------------------------------------------------------------ *)

let frozen (d : t) = d.frozen

(** Seal the decision tables: any later setter call raises.  Done by
    {!Compiler.compile_traced} once the pipeline finishes, making the
    resulting [t] safe to share across domains. *)
let freeze (d : t) = d.frozen <- true

let check_unfrozen (d : t) op =
  if d.frozen then
    invalid_arg (Printf.sprintf "Decisions.%s: decisions are frozen" op)

(* ------------------------------------------------------------------ *)
(* Lookup helpers                                                      *)
(* ------------------------------------------------------------------ *)

let scalar_mapping_of_def (d : t) (def : Ssa.def_id) : scalar_mapping =
  match Def_map.find_opt def d.tables.t_scalar with
  | Some m -> m
  | None -> Replicated

let mem_scalar_mapping (d : t) (def : Ssa.def_id) : bool =
  Def_map.mem def d.tables.t_scalar

let set_scalar_mapping (d : t) (def : Ssa.def_id) (m : scalar_mapping) =
  check_unfrozen d "set_scalar_mapping";
  d.tables <- { d.tables with t_scalar = Def_map.add def m d.tables.t_scalar }

(** Corrupt a scalar decision {e bypassing} the freeze check — the
    verifier tests' corruption hook; never call it from the compiler. *)
let unsafe_set_scalar_mapping (d : t) (def : Ssa.def_id) (m : scalar_mapping)
    =
  d.tables <- { d.tables with t_scalar = Def_map.add def m d.tables.t_scalar }

(** CFG node at which statement [sid] reads or writes variable [var]. *)
let stmt_node_for_var (d : t) (sid : Ast.stmt_id) (var : string) :
    int option =
  let g = d.ssa.Ssa.cfg in
  List.find_opt
    (fun n -> List.mem var (Cfg.uses g n) || List.mem var (Cfg.defs g n))
    (Cfg.nodes_of_sid g sid)

(** Mapping of the scalar [var] as {e used} at statement [sid]: the
    mapping of its first reaching definition. *)
let scalar_mapping_of_use (d : t) ~(sid : Ast.stmt_id) ~(var : string) :
    scalar_mapping =
  match stmt_node_for_var d sid var with
  | None -> Replicated
  | Some node -> (
      match Ssa.reaching_defs d.ssa ~node ~var with
      | [] -> Replicated
      | def :: _ -> scalar_mapping_of_def d def)

(** The SSA definition created by statement [sid] for scalar [var]. *)
let def_of_stmt (d : t) ~(sid : Ast.stmt_id) ~(var : string) :
    Ssa.def_id option =
  let g = d.ssa.Ssa.cfg in
  List.find_map
    (fun n -> Ssa.def_at d.ssa ~node:n ~var)
    (Cfg.nodes_of_sid g sid)

(** Innermost privatization of array [base] applying at statement [sid]:
    searches the enclosing loops innermost-first. *)
let array_mapping_at (d : t) ~(sid : Ast.stmt_id) ~(base : string) :
    (Nest.loop_info * array_mapping) option =
  let loops = List.rev (Nest.enclosing_loops d.nest sid) in
  List.find_map
    (fun (li : Nest.loop_info) ->
      match Arr_map.find_opt (base, li.loop_sid) d.tables.t_arrays with
      | Some m -> Some (li, m)
      | None -> None)
    loops

let mem_array_mapping (d : t) (key : string * Ast.stmt_id) : bool =
  Arr_map.mem key d.tables.t_arrays

let set_array_mapping (d : t) (key : string * Ast.stmt_id)
    (m : array_mapping) =
  check_unfrozen d "set_array_mapping";
  d.tables <- { d.tables with t_arrays = Arr_map.add key m d.tables.t_arrays }

(** Corrupt an array decision {e bypassing} the freeze check.  Exists
    only so the static verifier's tests can plant inconsistent decisions
    in a finished compile; never call it from the compiler. *)
let unsafe_set_array_mapping (d : t) (key : string * Ast.stmt_id)
    (m : array_mapping) =
  d.tables <- { d.tables with t_arrays = Arr_map.add key m d.tables.t_arrays }

let ctrl_privatized (d : t) (sid : Ast.stmt_id) : bool =
  match Sid_map.find_opt sid d.tables.t_ctrl with
  | Some b -> b
  | None -> false

let set_ctrl (d : t) (sid : Ast.stmt_id) (priv : bool) =
  check_unfrozen d "set_ctrl";
  d.tables <- { d.tables with t_ctrl = Sid_map.add sid priv d.tables.t_ctrl }

(** Defer a definition to the paper's Fig. 3 no-alignment examination
    list; {!no_align_deferred} replays them in push order. *)
let push_no_align (d : t) (def : Ssa.def_id) =
  check_unfrozen d "push_no_align";
  d.tables <-
    { d.tables with t_no_align_rev = def :: d.tables.t_no_align_rev }

let no_align_deferred (d : t) : Ssa.def_id list =
  List.rev d.tables.t_no_align_rev

(* ------------------------------------------------------------------ *)
(* Owner specs under the current decisions                             *)
(* ------------------------------------------------------------------ *)

let all_procs (d : t) : Ownership.spec = Ownership.all_procs d.env

(** Raw owner spec of a reference from the HPF directives alone. *)
let directive_spec (d : t) (r : Aref.t) : Ownership.spec =
  let indices = Nest.enclosing_indices d.nest r.Aref.sid in
  Ownership.owner_spec d.env ~indices r.Aref.base r.Aref.subs

(** Replace the given grid dimensions of a spec by [O_all]. *)
let replicate_dims (spec : Ownership.spec) (dims : int list) :
    Ownership.spec =
  Array.mapi
    (fun g o -> if List.mem g dims then Ownership.O_all else o)
    spec

(** Owner spec of a reference under the current privatization decisions.
    [as_def] selects the definition-side mapping for a scalar lhs (a use
    consults its reaching definitions instead). *)
let rec owner_spec (d : t) ?(as_def = false) (r : Aref.t) : Ownership.spec =
  if Aref.is_scalar r then begin
    if Ast.is_array d.prog r.Aref.base then directive_spec d r
    else if Nest.is_enclosing_index d.nest r.Aref.sid r.Aref.base then
      (* loop indices are known to every processor in SPMD code *)
      all_procs d
    else begin
      let m =
        if as_def then
          match def_of_stmt d ~sid:r.Aref.sid ~var:r.Aref.base with
          | Some def -> scalar_mapping_of_def d def
          | None -> Replicated
        else scalar_mapping_of_use d ~sid:r.Aref.sid ~var:r.Aref.base
      in
      spec_of_scalar_mapping d m
    end
  end
  else begin
    (* array reference: apply array privatization if one is in scope *)
    match array_mapping_at d ~sid:r.Aref.sid ~base:r.Aref.base with
    | None -> directive_spec d r
    | Some (_, Arr_priv { target = Some t }) -> owner_spec d t
    | Some (_, Arr_priv { target = None }) -> all_procs d
    | Some (_, Arr_partial_priv { target; priv_grid_dims }) ->
        let own = directive_spec d r in
        let tgt = owner_spec d target in
        Array.mapi
          (fun g o -> if List.mem g priv_grid_dims then tgt.(g) else o)
          own
  end

(** Spec corresponding to a scalar mapping. *)
and spec_of_scalar_mapping (d : t) (m : scalar_mapping) : Ownership.spec =
  match m with
  | Replicated | Priv_no_align ->
      (* "for the purpose of communication analysis, the scalar is viewed
         as if it has been replicated" (paper §2.1) *)
      all_procs d
  | Priv_aligned { target; _ } -> owner_spec d target
  | Priv_reduction { target; repl_grid_dims; _ } ->
      replicate_dims (owner_spec d target) repl_grid_dims

(** Pointwise union of owner specs (per dimension: equal specs are kept,
    anything else widens to all coordinates). *)
let spec_union (d : t) (specs : Ownership.spec list) : Ownership.spec =
  match specs with
  | [] -> all_procs d
  | s0 :: rest ->
      Array.mapi
        (fun g o0 ->
          if
            List.for_all
              (fun s ->
                match (s.(g), o0) with
                | Ownership.O_all, Ownership.O_all -> true
                | Ownership.O_fixed a, Ownership.O_fixed b -> a = b
                | Ownership.O_affine a, Ownership.O_affine b ->
                    a.fmt = b.fmt && a.nprocs = b.nprocs
                    && Affine.equal a.pos b.pos
                | _ -> false)
              rest
          then o0
          else Ownership.O_all)
        s0

(* ------------------------------------------------------------------ *)
(* Computation-partitioning guards                                     *)
(* ------------------------------------------------------------------ *)

(** How a statement's executing processor set is determined. *)
type guard =
  | G_all  (** executed by every processor *)
  | G_ref of Aref.t  (** owner-computes: the owner of this reference *)
  | G_ref_repl of Aref.t * int list
      (** owner of the reference, widened along the given grid dims
          (reduction statements) *)
  | G_union
      (** union of the processors executing the other statements of the
          surrounding loop iteration (privatization without alignment,
          privatized control flow) *)

let pp_guard ppf = function
  | G_all -> Fmt.string ppf "all processors"
  | G_ref r -> Fmt.pf ppf "owner of %a" Aref.pp r
  | G_ref_repl (r, dims) ->
      Fmt.pf ppf "owner of %a (+ grid dims {%a})" Aref.pp r
        Fmt.(list ~sep:(any ", ") int)
        dims
  | G_union -> Fmt.string ppf "union of iteration's executors"

(** Guard of a statement under the current decisions (owner-computes
    rule, refined by privatization). *)
let guard_of_stmt (d : t) (s : Ast.stmt) : guard =
  match s.node with
  | Assign (LArr (a, subs), _) -> (
      let r = { Aref.sid = s.sid; base = a; subs } in
      match array_mapping_at d ~sid:s.sid ~base:a with
      | Some (_, Arr_priv { target = Some t }) -> G_ref t
      | Some (_, Arr_priv { target = None }) -> G_union
      | Some (_, Arr_partial_priv _) ->
          (* executes where the partially privatized instance lives:
             G_ref on the original reference resolves through owner_spec
             to the target's coords on privatized dims and the array's
             own coords elsewhere *)
          G_ref r
      | None -> G_ref r)
  | Assign (LVar v, _) -> (
      match Reduction.reduction_of_stmt d.reductions s.sid with
      | Some _ -> (
          match def_of_stmt d ~sid:s.sid ~var:v with
          | Some def -> (
              match scalar_mapping_of_def d def with
              | Priv_reduction { target; _ } ->
                  (* each partial-accumulation instance executes exactly
                     at the owner of the contributed element; the widened
                     spec describes where s's copies live, not who
                     executes a given instance *)
                  G_ref target
              | Replicated -> G_all
              | Priv_no_align -> G_union
              | Priv_aligned { target; _ } -> G_ref target)
          | None -> G_all)
      | None -> (
          match def_of_stmt d ~sid:s.sid ~var:v with
          | Some def -> (
              match scalar_mapping_of_def d def with
              | Replicated -> G_all
              | Priv_no_align -> G_union
              | Priv_aligned { target; _ } -> G_ref target
              | Priv_reduction { target; repl_grid_dims; _ } ->
                  (* a non-accumulating assignment (e.g. the
                     initialisation before the loop) updates every copy
                     of the variable: owner of the target widened along
                     the reduction dims — whose subscripts may not even
                     be in scope here and are never evaluated *)
                  G_ref_repl (target, repl_grid_dims))
          | None -> G_all))
  | If (_, t, e) -> (
      (* a conditional reduction executes where its partial accumulation
         lives *)
      match Reduction.reduction_of_stmt d.reductions s.sid with
      | Some red -> (
          let assign_sid =
            List.find_map
              (fun (st : Ast.stmt) ->
                match st.node with
                | Assign (LVar v, _) when v = red.Reduction.var ->
                    Some st.sid
                | _ -> None)
              (t @ e)
          in
          match assign_sid with
          | None -> if ctrl_privatized d s.sid then G_union else G_all
          | Some sid -> (
              match def_of_stmt d ~sid ~var:red.Reduction.var with
              | Some def -> (
                  match scalar_mapping_of_def d def with
                  | Priv_reduction { target; _ } -> G_ref target
                  | Priv_aligned { target; _ } -> G_ref target
                  | Replicated ->
                      if ctrl_privatized d s.sid then G_union else G_all
                  | Priv_no_align -> G_union)
              | None -> if ctrl_privatized d s.sid then G_union else G_all))
      | None -> if ctrl_privatized d s.sid then G_union else G_all)
  | Do _ ->
      (* loop bounds are evaluated by every processor (SPMD structure) *)
      G_all
  | Exit _ | Cycle _ ->
      (* pure control transfers: executed by whoever executes anything
         else in the iteration (they never touch data) *)
      G_union

(** Spec of the processors executing statement [s] (the guard as an
    owner spec; [G_union] is resolved against the sibling statements of
    the innermost enclosing loop). *)
let rec guard_spec (d : t) (s : Ast.stmt) : Ownership.spec =
  match guard_of_stmt d s with
  | G_all -> all_procs d
  | G_ref r -> owner_spec d ~as_def:true r
  | G_ref_repl (r, dims) -> replicate_dims (owner_spec d r) dims
  | G_union -> (
      match Nest.innermost_loop d.nest s.sid with
      | None -> all_procs d
      | Some li ->
          let siblings =
            List.filter
              (fun (st : Ast.stmt) ->
                st.sid <> s.sid
                &&
                match guard_of_stmt d st with G_union -> false | _ -> true)
              (all_stmts_in li.loop.body)
          in
          (* a sibling nested deeper than [s] ranges over extra loops:
             its contribution is the union over their iterations, so the
             grid dims their indices drive widen to all coordinates *)
          let scope = Nest.enclosing_indices d.nest s.sid in
          let widen_out_of_scope (st : Ast.stmt) (spec : Ownership.spec) :
              Ownership.spec =
            Array.map
              (function
                | Ownership.O_affine { pos; _ } as o ->
                    if
                      List.exists
                        (fun v ->
                          Nest.is_enclosing_index d.nest st.sid v
                          && not (List.mem v scope))
                        (Affine.vars pos)
                    then Ownership.O_all
                    else o
                | o -> o)
              spec
          in
          spec_union d
            (List.map
               (fun st -> widen_out_of_scope st (guard_spec d st))
               siblings))

and all_stmts_in (body : Ast.stmt list) : Ast.stmt list =
  let acc = ref [] in
  Ast.iter_stmts (fun s -> acc := s :: !acc) body;
  List.rev !acc

(* Deterministic read-only views of the decision tables, for consumers
   (reporting, the static verifier) that must not depend on table
   internals.  Maps iterate in key order, so these are sorted for free. *)

let scalar_mappings (d : t) : (Ssa.def_id * scalar_mapping) list =
  Def_map.bindings d.tables.t_scalar

let array_mappings (d : t) : ((string * Ast.stmt_id) * array_mapping) list =
  Arr_map.bindings d.tables.t_arrays

let ctrl_entries (d : t) : (Ast.stmt_id * bool) list =
  Sid_map.bindings d.tables.t_ctrl

let scalar_count (d : t) = Def_map.cardinal d.tables.t_scalar
let array_count (d : t) = Arr_map.cardinal d.tables.t_arrays
let ctrl_count (d : t) = Sid_map.cardinal d.tables.t_ctrl

(** Per-array privatization summary across all loops: [`Full] if any
    loop fully privatizes [base], otherwise the union of the partial
    privatization grid dims, [`None] when no decision mentions it.
    (Shared by the SPMD lowerer, the legacy executor and tests.) *)
let array_priv_summary (d : t) (base : string) :
    [ `Full | `Partial of int list | `None ] =
  List.fold_left
    (fun acc ((name, _), mapping) ->
      if not (String.equal name base) then acc
      else
        match (mapping, acc) with
        | Arr_priv _, _ | _, `Full -> `Full
        | Arr_partial_priv { priv_grid_dims; _ }, `None ->
            `Partial priv_grid_dims
        | Arr_partial_priv { priv_grid_dims; _ }, `Partial ds ->
            `Partial (List.sort_uniq compare (priv_grid_dims @ ds)))
    `None (array_mappings d)

(* ------------------------------------------------------------------ *)
(* The knob table: one declaration per boolean option                   *)
(* ------------------------------------------------------------------ *)

type knob = {
  key : string;
  flag : string;
  doc : string;
  get : options -> bool;
  set : options -> bool -> options;
}

let knobs : knob list =
  [
    {
      key = "privatize_scalars";
      flag = "no-scalar-priv";
      doc = "Disable scalar privatization (replicate all scalars).";
      get = (fun o -> o.privatize_scalars);
      set = (fun o b -> { o with privatize_scalars = b });
    };
    {
      key = "force_producer_alignment";
      flag = "producer-align";
      doc =
        "Always align privatized scalars with a producer reference (skip \
         consumer selection).";
      get = (fun o -> o.force_producer_alignment);
      set = (fun o b -> { o with force_producer_alignment = b });
    };
    {
      key = "reduction_alignment";
      flag = "no-reduction-align";
      doc = "Disable the reduction-accumulator mapping of paper §2.3.";
      get = (fun o -> o.reduction_alignment);
      set = (fun o b -> { o with reduction_alignment = b });
    };
    {
      key = "privatize_arrays";
      flag = "no-array-priv";
      doc = "Disable array privatization.";
      get = (fun o -> o.privatize_arrays);
      set = (fun o b -> { o with privatize_arrays = b });
    };
    {
      key = "partial_privatization";
      flag = "no-partial-priv";
      doc = "Disable partial privatization.";
      get = (fun o -> o.partial_privatization);
      set = (fun o b -> { o with partial_privatization = b });
    };
    {
      key = "privatize_control";
      flag = "no-ctrl-priv";
      doc = "Disable privatized execution of control flow.";
      get = (fun o -> o.privatize_control);
      set = (fun o b -> { o with privatize_control = b });
    };
    {
      key = "auto_array_priv";
      flag = "auto-array-priv";
      doc =
        "Enable automatic (directive-free) array privatization — the \
         paper's future-work extension.";
      get = (fun o -> o.auto_array_priv);
      set = (fun o b -> { o with auto_array_priv = b });
    };
    {
      key = "optimize";
      flag = "no-opt";
      doc =
        "Disable the Sir optimizer suite and the emitter's no-op-transfer \
         elision: ship the paper-faithful phpf communication schedule \
         verbatim.";
      get = (fun o -> o.optimize);
      set = (fun o b -> { o with optimize = b });
    };
  ]

(** The one reading of an optimizer pass selection: bare and
    [sir-opt.]-prefixed names alike, returned in canonical order without
    duplicates, so equivalent selections compare (and sign) equal. *)
let normalize_opt_passes (names : string list) : (string list, string) result
    =
  let registered = Phpf_ir.Sir_opt.pass_names in
  let prefix = "sir-opt." in
  let bare n =
    if String.starts_with ~prefix n then
      String.sub n (String.length prefix)
        (String.length n - String.length prefix)
    else n
  in
  let names = List.map bare names in
  match List.find_opt (fun n -> not (List.mem n registered)) names with
  | Some n ->
      Error
        (Printf.sprintf "unknown pass %s (registered: %s)" n
           (String.concat ", " (List.map (( ^ ) prefix) registered)))
  | None -> Ok (List.filter (fun n -> List.mem n names) registered)

(** Canonical one-line rendering of an option record, used as the
    options component of content-addressed cache keys
    ({!Phpf_driver.Memo.key}).  Two records have equal signatures iff
    they are structurally equal, so requests differing in any knob can
    never share a cache entry. *)
let options_signature (o : options) : string =
  String.concat ";"
    (List.map (fun k -> k.key ^ if k.get o then "=1" else "=0") knobs)
  ^ ";opt_passes="
  ^
  match o.opt_passes with None -> "*" | Some ps -> String.concat "," ps
