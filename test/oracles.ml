(* Test-side references for the library's fast paths.

   The ownership oracles chase the privatization and alignment chains
   of the mapping decisions at run time, against a memory holding the
   current iteration, and expand the per-dimension owner coordinates
   into explicit, ascending pid lists by cartesian product — the
   straightforward reading of the mapping rules.  They share no code
   with the lowering ({!Phpf_core.Lower_spmd}): the guards it records
   in the Sir, evaluated by {!Hpf_spmd.Concrete}, and the library's
   closed-form sets ({!Hpf_mapping.Pid_set}) must agree with them.
   [relower] lowers a compiled record's (possibly mutated) decisions
   and schedule afresh, for corruption tests that execute exactly the
   data movement they describe, and [flow_requirements] re-derives the
   communication requirement that [verify-flow] audits, the reference
   for {!Phpf_verify.Sir_flow.requirements}' reading of the schedule.
   [List_flow] is the dataflow core on its specification lattices
   (sorted lists), the reference for {!Phpf_ir.Sir_dataflow}'s
   interned bitsets, [dominators] the full dominance matrix of the
   lowered IR's graph, the reference for {!Hpf_analysis.Dom}'s
   immediate dominators, and [ssa_build] and [reached_uses] the SSA
   construction that scans every (variable, node) pair and the
   per-query walk of the φ web, the references for
   {!Hpf_analysis.Ssa.build} and its reached-use table.  [Loop_walk]
   answers the dependence query of communication placement by visiting
   every statement of the loop body, the reference for the nest's write
   index behind {!Hpf_analysis.Depend.write_feeds_read_in_loop}, and
   [rte_loop] is [rte] deleting one transfer at a time with both
   fixpoints re-run after each deletion, the reference for
   {!Phpf_ir.Sir_dataflow.redundant_deletions}.  [Clock_queue] is one
   cache shard as the second-chance FIFO queue, the reference for the
   slot ring and hand of {!Phpf_driver.Memo}'s CLOCK eviction.

   The runtime's references come first: [Ast_eval] is the evaluator,
   the sequential interpreter and the Sir guard evaluation as a walk of
   the AST that looks every name up in memory at every access, and
   [seed_list] is the list-based memory seeding and [Msg_list] the
   list-based message payload with its checksum and block-corruption
   pick.  The compiled forms ({!Hpf_spmd.Eval}, {!Hpf_spmd.Seq_interp},
   {!Hpf_spmd.Concrete}, {!Hpf_spmd.Init}, {!Hpf_spmd.Msg},
   {!Hpf_spmd.Fault}) must agree with them bit for bit, errors
   included. *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping
open Phpf_core
open Hpf_spmd

(* ------------------------------------------------------------------ *)
(* The AST-walking runtime                                             *)
(* ------------------------------------------------------------------ *)

module Ast_eval = struct
  (* Name-keyed evaluation: a binary operator or intrinsic evaluates its
     right operand first, subscripts go left to right, the array is
     looked up after its subscripts. *)
  let rec expr (m : Memory.t) (e : Ast.expr) : Value.t =
    match e with
    | Ast.Int n -> Value.I n
    | Ast.Real f -> Value.R f
    | Ast.Bool b -> Value.B b
    | Ast.Var v -> Memory.get_scalar m v
    | Ast.Arr (a, subs) ->
        let idx = List.map (int_expr m) subs in
        Memory.get_elem m a idx
    | Ast.Bin (op, a, b) ->
        let vb = expr m b in
        let va = expr m a in
        Eval.binop op va vb
    | Ast.Un (op, a) -> Eval.unop op (expr m a)
    | Ast.Intrin (op, a, b) ->
        let vb = expr m b in
        let va = expr m a in
        Eval.intrin op va vb

  and int_expr (m : Memory.t) (e : Ast.expr) : int = Value.to_int (expr m e)

  let bool_expr (m : Memory.t) (e : Ast.expr) : bool =
    Value.to_bool (expr m e)

  exception Exit_loop of string option
  exception Cycle_loop of string option

  (* The sequential interpreter as a walk of the AST: same fuel, same
     [on_stmt] hook, same error stamping (innermost statement wins). *)
  let run ?(config = Seq_interp.default_config) ?init (prog : Ast.program) :
      Memory.t =
    let m = Memory.create prog in
    (match init with Some f -> f m | None -> ());
    let fuel = ref config.Seq_interp.fuel in
    let tick (s : Ast.stmt) =
      decr fuel;
      if !fuel <= 0 then
        raise
          (Seq_interp.Fuel_exhausted
             { loc = s.Ast.loc; sid = s.Ast.sid; budget = config.Seq_interp.fuel });
      match config.Seq_interp.on_stmt with Some f -> f s m | None -> ()
    in
    let rec stmts ss = List.iter stmt ss
    and stmt (s : Ast.stmt) =
      Memory.locate_errors s @@ fun () ->
      match s.Ast.node with
      | Ast.Assign (lhs, rhs) -> (
          tick s;
          let v = expr m rhs in
          match lhs with
          | Ast.LVar x -> Memory.set_scalar m x v
          | Ast.LArr (a, subs) ->
              let idx = List.map (int_expr m) subs in
              Memory.set_elem m a idx v)
      | Ast.If (c, t, e) ->
          tick s;
          if bool_expr m c then stmts t else stmts e
      | Ast.Exit name ->
          tick s;
          raise (Exit_loop name)
      | Ast.Cycle name ->
          tick s;
          raise (Cycle_loop name)
      | Ast.Do d ->
          tick s;
          let lo = int_expr m d.Ast.lo in
          let hi = int_expr m d.Ast.hi in
          let step = int_expr m d.Ast.step in
          if step = 0 then Memory.rerr "zero loop step";
          let i = ref lo in
          (try
             while if step > 0 then !i <= hi else !i >= hi do
               Memory.set_scalar m d.Ast.index (Value.I !i);
               (try stmts d.Ast.body with
               | Cycle_loop None -> ()
               | Cycle_loop (Some n) when d.Ast.loop_name = Some n -> ());
               i := !i + step
             done
           with
          | Exit_loop None -> ()
          | Exit_loop (Some n) when d.Ast.loop_name = Some n -> ())
    in
    stmts prog.Ast.body;
    m

  (* Sir owner lines and guards, evaluated by walking their subscripts. *)
  let place_set (grid : Grid.t) (m : Memory.t) (pl : Phpf_ir.Sir.place) :
      Pid_set.t =
    let module Sir = Phpf_ir.Sir in
    Pid_set.of_dims grid
      (Array.map
         (function
           | Sir.C_fixed c -> Pid_set.D_one c
           | Sir.C_affine { fmt; nprocs; stride; offset; dim_lo; sub } ->
               Pid_set.D_one
                 (Dist.owner_coord fmt ~nprocs
                    ((stride * int_expr m sub) + offset - dim_lo))
           | Sir.C_all -> Pid_set.D_all)
         pl)

  let pred_set (grid : Grid.t) (m : Memory.t) (p : Phpf_ir.Sir.pred) :
      Pid_set.t =
    let module Sir = Phpf_ir.Sir in
    match p with
    | Sir.P_all -> Pid_set.all grid
    | Sir.P_place pl -> place_set grid m pl
    | Sir.P_union pls ->
        let union =
          List.fold_left
            (fun acc pl -> Pid_set.union acc (place_set grid m pl))
            (Pid_set.of_list grid []) pls
        in
        if Pid_set.is_empty union then Pid_set.all grid else union
end

(* The list-based seeding: an index list per element, mixed, written by
   name. *)
let seed_list ?(seed = 42) (prog : Ast.program) (m : Memory.t) : unit =
  List.iter
    (fun (d : Ast.decl) ->
      if d.Ast.shape <> [] then begin
        let h0 = Init.mix seed [ Init.hash_name d.Ast.dname ] in
        Memory.iter_elems m d.Ast.dname (fun idx _ ->
            let h = Init.mix h0 idx in
            let v =
              match d.Ast.ty with
              | Types.TInt -> Value.I (1 + (h mod 8))
              | Types.TReal ->
                  Value.R (0.0625 +. (float_of_int (h land 0xFFFF) /. 32768.0))
              | Types.TBool -> Value.B (h land 1 = 1)
            in
            Memory.set_elem m d.Ast.dname idx v)
      end)
    prog.Ast.decls

(* Every bound scalar and every array element, for bit-equality of two
   memories ([compare], so NaNs equal themselves). *)
let mem_image (m : Memory.t) =
  ( Memory.scalars m,
    List.map
      (fun a ->
        let elems = ref [] in
        Memory.iter_elems m a (fun idx v -> elems := (idx, v) :: !elems);
        (a, List.rev !elems))
      (Memory.arrays m) )

let mem_equal (a : Memory.t) (b : Memory.t) = compare (mem_image a) (mem_image b) = 0

(* The outcome of one sequential run, for the resolved-vs-AST
   differential: the final memory image and the statement ids
   [on_stmt] saw, in order — or the error that ended the run. *)
type outcome =
  | Finished of { image : string; sids : string }
  | Failed of string

let outcome_of ~run ?(fuel = Seq_interp.default_fuel) ?init prog : outcome =
  let sids = Buffer.create 256 in
  let on_stmt (s : Ast.stmt) _ = Buffer.add_int32_le sids (Int32.of_int s.Ast.sid) in
  match run ~config:{ Seq_interp.fuel; on_stmt = Some on_stmt } ?init prog with
  | m ->
      Finished
        {
          image = Marshal.to_string (mem_image m) [ Marshal.No_sharing ];
          sids = Buffer.contents sids;
        }
  | exception Memory.Runtime_error { loc; sid; msg } ->
      Failed
        (Fmt.str "runtime error %S at s%a %a" msg
           Fmt.(option ~none:(any "-") int) sid
           Fmt.(option ~none:(any "-") Loc.pp) loc)
  | exception Seq_interp.Fuel_exhausted { loc; sid; budget } ->
      Failed
        (Fmt.str "fuel %d exhausted at s%d %a" budget sid
           Fmt.(option ~none:(any "-") Loc.pp) loc)
  | exception Invalid_argument msg -> Failed ("invalid argument: " ^ msg)

(* [None] when the compiled interpreter and the AST walk agree on
   [prog] (same final memory, same statement sequence, or the same
   error), else a description of the first difference. *)
let resolved_vs_ast ?fuel ?init prog : string option =
  let resolved = outcome_of ~run:(fun ~config ?init p -> Seq_interp.run ~config ?init p) ?fuel ?init prog in
  let walked = outcome_of ~run:(fun ~config ?init p -> Ast_eval.run ~config ?init p) ?fuel ?init prog in
  match (resolved, walked) with
  | Finished r, Finished w ->
      if r.sids <> w.sids then Some "statement sequences differ"
      else if r.image <> w.image then Some "final memories differ"
      else None
  | Failed r, Failed w -> if r = w then None else Some (Fmt.str "%s vs %s" r w)
  | Finished _, Failed w -> Some ("only the AST walk failed: " ^ w)
  | Failed r, Finished _ -> Some ("only the resolved run failed: " ^ r)

(* ------------------------------------------------------------------ *)
(* The list-based message payload                                      *)
(* ------------------------------------------------------------------ *)

(* Payloads keyed by name with an index list per element, checksummed
   by folding one integer list through [Init.mix]: the reference for
   {!Hpf_spmd.Msg.checksum}'s streamed image of the flat, slot- and
   cell-addressed payload, and for {!Hpf_spmd.Fault.corrupt_payload}'s
   pick of the damaged block element. *)
module Msg_list = struct
  type payload =
    | Scalar of { var : string; value : Value.t }
    | Elem of { base : string; index : int list; value : Value.t }
    | Block of {
        base : string;
        indices : int list list;  (** an empty vector writes the scalar *)
        values : Value.t list;
      }

  let of_payload : Msg.payload -> payload = function
    | Msg.Scalar { var; value; _ } -> Scalar { var; value }
    | Msg.Elem { base; index; value; _ } ->
        Elem { base; index = Array.to_list index; value }
    | Msg.Block { base; rank; indices; values; _ } ->
        Block
          {
            base;
            indices =
              List.init (Array.length values) (fun k ->
                  Array.to_list (Array.sub indices (k * rank) rank));
            values = Array.to_list values;
          }

  let value_bits = function
    | Value.I n -> [ 1; n ]
    | Value.R f ->
        let b = Int64.bits_of_float f in
        [ 2; Int64.to_int (Int64.shift_right_logical b 32); Int64.to_int b ]
    | Value.B b -> [ 3; (if b then 1 else 0) ]

  (* The integer sequence a checksum folds, after its seed. *)
  let image (p : payload) : int list =
    match p with
    | Scalar { var; value } -> Init.hash_name var :: value_bits value
    | Elem { base; index; value } ->
        (Init.hash_name base :: index) @ value_bits value
    | Block { base; indices; values } ->
        let body =
          List.concat_map
            (fun (idx, v) -> (List.length idx :: idx) @ value_bits v)
            (List.combine indices values)
        in
        Init.hash_name base :: List.length values :: body

  let checksum (p : payload) : int = Init.mix 0x5EED (image p)

  let value_bits_for_pick = function
    | Value.I n -> [ n ]
    | Value.R f ->
        let b = Int64.bits_of_float f in
        [ Int64.to_int (Int64.shift_right_logical b 32); Int64.to_int b ]
    | Value.B b -> [ (if b then 1 else 0) ]

  (* The element of a block that corruption damages ([-1]: none). *)
  let block_pick (values : Value.t list) : int =
    match values with
    | [] -> -1
    | v :: _ -> Init.mix 0xB10C (value_bits_for_pick v) mod List.length values
end

(* ------------------------------------------------------------------ *)
(* The run-time chase of the mapping decisions                         *)
(* ------------------------------------------------------------------ *)

(* Per-grid-dimension concrete coordinate set. *)
type dims = Ownership.concrete_dim array

let all_dims (env : Layout.env) : dims =
  Array.make (Grid.rank env.Layout.grid) Ownership.C_all

(* Owner of reference [r] under layout bindings, with subscripts
   evaluated in [m].  Grid dims in [skip_dims] come out [C_all] without
   evaluating their subscripts (a widened reduction mapping may reference
   an index that is out of scope at the statement). *)
let layout_owner ?(skip_dims = []) ?(widen_var = fun _ -> false)
    (env : Layout.env) (m : Memory.t) (base : string)
    (subs : Ast.expr list) : dims =
  let l = Layout.layout_of env base in
  Array.mapi
    (fun g b ->
      if List.mem g skip_dims then Ownership.C_all
      else
        match b with
        | Layout.Repl -> Ownership.C_all
        | Layout.Fixed c -> Ownership.C_one c
        | Layout.Mapped mp -> (
            match List.nth_opt subs mp.array_dim with
            | None -> Ownership.C_all
            | Some sub ->
                if List.exists widen_var (Ast.expr_vars sub) then
                  (* the subscript ranges over a loop not currently in
                     scope: the owner set is the union over its
                     iterations *)
                  Ownership.C_all
                else begin
                  let i = Ast_eval.int_expr m sub in
                  let pos = (mp.stride * i) + mp.offset - mp.dim_lo in
                  Ownership.C_one
                    (Dist.owner_coord mp.fmt ~nprocs:mp.nprocs pos)
                end))
    l.Layout.bindings

(* Owner of a reference, chasing its privatization and alignment chain
   through the decisions at run time.  [as_def] selects the
   definition-side mapping of a scalar lhs. *)
let rec owner (d : Decisions.t) (m : Memory.t) ?(as_def = false)
    ?(skip_dims = []) ?(widen_var = fun _ -> false) ?(depth = 0)
    (r : Aref.t) : dims =
  let env = d.Decisions.env in
  if depth > 8 then all_dims env
  else if Aref.is_scalar r then begin
    if Ast.is_array d.Decisions.prog r.Aref.base then
      layout_owner ~skip_dims ~widen_var env m r.Aref.base []
    else if
      Nest.is_enclosing_index d.Decisions.nest r.Aref.sid r.Aref.base
    then all_dims env
    else begin
      let mapping =
        if as_def then
          match
            Decisions.def_of_stmt d ~sid:r.Aref.sid ~var:r.Aref.base
          with
          | Some def -> Decisions.scalar_mapping_of_def d def
          | None -> Decisions.Replicated
        else
          Decisions.scalar_mapping_of_use d ~sid:r.Aref.sid
            ~var:r.Aref.base
      in
      match mapping with
      | Decisions.Replicated | Decisions.Priv_no_align -> all_dims env
      | Decisions.Priv_aligned { target; _ } ->
          owner d m ~skip_dims ~widen_var ~depth:(depth + 1) target
      | Decisions.Priv_reduction { target; repl_grid_dims; _ } ->
          (* widened dims are never evaluated: their subscripts may be
             out of scope at this statement *)
          owner d m ~widen_var
            ~skip_dims:(repl_grid_dims @ skip_dims)
            ~depth:(depth + 1) target
    end
  end
  else begin
    match Decisions.array_mapping_at d ~sid:r.Aref.sid ~base:r.Aref.base with
    | None -> layout_owner ~skip_dims ~widen_var env m r.Aref.base r.Aref.subs
    | Some (_, Decisions.Arr_priv { target = Some t }) ->
        owner d m ~skip_dims ~widen_var ~depth:(depth + 1) t
    | Some (_, Decisions.Arr_priv { target = None }) -> all_dims env
    | Some (_, Decisions.Arr_partial_priv { target; priv_grid_dims }) ->
        let own =
          layout_owner ~widen_var
            ~skip_dims:(priv_grid_dims @ skip_dims)
            env m r.Aref.base r.Aref.subs
        in
        let tgt =
          let non_priv =
            List.init (Grid.rank env.Layout.grid) Fun.id
            |> List.filter (fun g -> not (List.mem g priv_grid_dims))
          in
          owner d m ~widen_var
            ~skip_dims:(non_priv @ skip_dims)
            ~depth:(depth + 1) target
        in
        Array.mapi
          (fun g c -> if List.mem g priv_grid_dims then tgt.(g) else c)
          own
  end

(* Expand per-dimension coordinates into linear processor ids,
   lexicographically (ascending ids). *)
let pids (env : Layout.env) (dims : dims) : int list =
  let grid = env.Layout.grid in
  let rec expand g coord =
    if g = Array.length dims then
      [ Grid.linearize grid (Array.of_list (List.rev coord)) ]
    else
      match dims.(g) with
      | Ownership.C_one c -> expand (g + 1) (c :: coord)
      | Ownership.C_all ->
          List.concat
            (List.init (Grid.extent grid g) (fun c ->
                 expand (g + 1) (c :: coord)))
  in
  expand 0 []

(* Linear processor ids owning the element of [base] at index [idx]. *)
let element_owner_pids (env : Layout.env) (base : string) (idx : int array) :
    int list =
  pids env (Ownership.owner_of_element env base idx)

(* Linear processor ids owning reference [r] under the decisions. *)
let owner_pids (d : Decisions.t) (m : Memory.t) ?as_def (r : Aref.t) :
    int list =
  pids d.Decisions.env (owner d m ?as_def r)

(* Processors executing statement [s] in the current iteration ([m]
   holds the loop indices).  [G_union] resolves to the union over the
   sibling statements of the innermost enclosing loop, each sibling's
   out-of-scope loop indices widened to their whole axis. *)
let executing_pids (d : Decisions.t) (m : Memory.t) (s : Ast.stmt) :
    int list =
  let env = d.Decisions.env in
  let everyone = pids env (all_dims env) in
  match Decisions.guard_of_stmt d s with
  | Decisions.G_all -> everyone
  | Decisions.G_ref r -> owner_pids d m ~as_def:true r
  | Decisions.G_ref_repl (r, repl) ->
      pids env (owner d m ~skip_dims:repl r)
  | Decisions.G_union -> (
      match Nest.innermost_loop d.Decisions.nest s.Ast.sid with
      | None -> everyone
      | Some li ->
          let scope = Nest.enclosing_indices d.Decisions.nest s.Ast.sid in
          let sibling (st : Ast.stmt) =
            let widen_var v =
              Nest.is_enclosing_index d.Decisions.nest st.Ast.sid v
              && not (List.mem v scope)
            in
            match Decisions.guard_of_stmt d st with
            | _ when st.Ast.sid = s.Ast.sid -> []
            | Decisions.G_all -> everyone
            | Decisions.G_ref r ->
                pids env (owner d m ~as_def:true ~widen_var r)
            | Decisions.G_ref_repl (r, repl) ->
                pids env (owner d m ~widen_var ~skip_dims:repl r)
            | Decisions.G_union -> []
          in
          let union =
            List.sort_uniq compare
              (List.concat_map sibling
                 (Decisions.all_stmts_in li.Nest.loop.Ast.body))
          in
          if union = [] then everyone else union)

(* A fresh, permissive lowering of [c]'s decisions and schedule: pass it
   as [~sir] to run a record mutated after compilation. *)
let relower (c : Compiler.compiled) : Phpf_ir.Sir.program =
  Lower_spmd.lower ~prog:c.Compiler.prog ~decisions:c.Compiler.decisions
    ~comms:c.Compiler.comms ()

(* The requirements of the E0612 audit re-derived from the decisions by
   the compile pass's own analysis, restricted to those the schedule
   has a descriptor for.  On an uncorrupted compile the schedule is
   exactly this derivation, which is why the library reads it
   instead. *)
let flow_requirements (c : Compiler.compiled) (g : Phpf_ir.Sir_cfg.t) :
    Phpf_verify.Sir_flow.req list =
  let module Comm = Hpf_comm.Comm in
  let d = c.Compiler.decisions in
  let acknowledged =
    Hpf_comm.Comm_analysis.analyze d.Decisions.deps (Consumer.oracle d) ~reductions:d.Decisions.reductions
      ~red_group:(Reduction_map.combine_group d)
      ~elide_unwritten:d.Decisions.options.Decisions.optimize ()
    |> List.filter (fun (r : Comm.t) ->
           List.exists
             (fun (s : Comm.t) -> Aref.equal s.Comm.data r.Comm.data)
             c.Compiler.comms)
  in
  List.filter_map (Phpf_verify.Sir_flow.req_of g) acknowledged

(* ------------------------------------------------------------------ *)
(* The sorted-list dataflow lattice                                    *)
(* ------------------------------------------------------------------ *)

(* The reference for {!Phpf_ir.Sir_dataflow}'s interned bitsets: both
   fixpoints on their specification domains — sorted, deduplicated
   fact and name lists compared structurally — with every node's
   events replayed on each worklist visit and a fresh CFG per call. *)
module List_flow = struct
  module Df = Phpf_ir.Sir_dataflow
  module Sir = Phpf_ir.Sir
  module Sir_cfg = Phpf_ir.Sir_cfg
  module Flow = Phpf_ir.Flow

  let coord_vars = function
    | Sir.C_all | Sir.C_fixed _ -> []
    | Sir.C_affine { sub; _ } -> Ast.expr_vars sub

  let place_vars (p : Sir.place) = Array.to_list p |> List.concat_map coord_vars

  let dests_vars = function
    | Sir.D_all | Sir.D_pred Sir.P_all -> []
    | Sir.D_pred (Sir.P_place p) -> place_vars p
    | Sir.D_pred (Sir.P_union ps) -> List.concat_map place_vars ps

  let key_vars = function
    | Df.K_scalar b | Df.K_whole b -> [ b ]
    | Df.K_elem (b, subs) -> b :: List.concat_map Ast.expr_vars subs
    | Df.K_section (b, subs, walked) ->
        let bound =
          List.map (fun (l : Sir.loop_desc) -> l.Sir.index) walked
        in
        (b
        :: List.filter
             (fun v -> not (List.mem v bound))
             (List.concat_map Ast.expr_vars subs))
        @ List.concat_map
            (fun (l : Sir.loop_desc) ->
              List.concat_map Ast.expr_vars [ l.Sir.lo; l.Sir.hi; l.Sir.step ])
            walked

  module Avail = struct
    type t = Top | Facts of Df.fact list  (** sorted and deduplicated *)

    let equal (a : t) (b : t) = a = b

    let join a b =
      match (a, b) with
      | Top, x | x, Top -> x
      | Facts xs, Facts ys -> Facts (List.filter (fun f -> List.mem f ys) xs)

    let add (f : Df.fact) = function
      | Top -> Top
      | Facts fs -> Facts (List.sort_uniq compare (f :: fs))

    let filter p = function Top -> Top | Facts fs -> Facts (List.filter p fs)

    let kill_var (x : string) =
      filter (fun (f : Df.fact) ->
          (not (List.mem x (key_vars f.Df.key)))
          && not (List.mem x (dests_vars f.Df.dests)))

    let kill_base (b : string) =
      filter (fun (f : Df.fact) -> Df.key_base f.Df.key <> b)
  end

  module Avail_engine = Flow.Make (Avail)

  let write sid v : Df.fact =
    { Df.src = Df.F_write sid; key = Df.K_scalar v; dests = Sir.D_all }

  let pre_exec (g : Sir_cfg.t) (ops : Sir.stmt_ops) ?(skip_op : int option)
      (st : Avail.t) : Avail.t =
    let st =
      List.fold_left
        (fun st v -> Avail.add (write ops.Sir.sid v) (Avail.kill_base v st))
        st ops.Sir.mirror
    in
    let st =
      List.fold_left
        (fun st (step : Sir.red_step) ->
          match step with
          | Sir.R_mark _ -> st
          | Sir.R_combine ix ->
              let r = g.Sir_cfg.program.Sir.reductions.(ix) in
              List.fold_left
                (fun st v ->
                  Avail.add (write ops.Sir.sid v)
                    (Avail.kill_var v (Avail.kill_base v st)))
                st
                (r.Sir.rvar :: r.Sir.loc_vars))
        st ops.Sir.red_steps
    in
    List.fold_left
      (fun st (op : Sir.comm_op) ->
        match Df.fact_of_op ~mirror:ops.Sir.mirror op with
        | Some f when skip_op <> Some op.Sir.uid -> Avail.add f st
        | _ -> st)
      st ops.Sir.comms

  let exec_effect sid (exec : Sir.exec) (st : Avail.t) : Avail.t =
    match exec with
    | Sir.Control _ -> st
    | Sir.Loop_head { index; _ } ->
        Avail.add (write sid index) (Avail.kill_var index st)
    | Sir.Guarded_assign { lhs; computes; _ } ->
        let base, key =
          match lhs with
          | Ast.LVar v -> (v, Df.K_scalar v)
          | Ast.LArr (a, subs) -> (a, Df.K_elem (a, subs))
        in
        Avail.add
          { Df.src = Df.F_write sid; key; dests = Sir.D_pred computes }
          (Avail.kill_var base (Avail.kill_base base st))

  let avail_transfer (g : Sir_cfg.t) (i : int) (st : Avail.t) : Avail.t =
    let st =
      match Sir_cfg.index_defined_at g i with
      | Some x -> Avail.kill_var x st
      | None -> st
    in
    match Sir_cfg.ops_at g i with
    | None -> st
    | Some ops -> exec_effect ops.Sir.sid ops.Sir.exec (pre_exec g ops st)

  let covered (st : Avail.t) ?(excluding : int option) ~(key : Df.dkey)
      ~(need : Sir.dests) () : bool =
    match st with
    | Avail.Top -> true
    | Avail.Facts fs ->
        List.exists
          (fun (f : Df.fact) ->
            (match (excluding, f.Df.src) with
            | Some uid, Df.F_op uid' -> uid <> uid'
            | _ -> true)
            && Df.key_covers ~have:f.Df.key ~need:key
            && Df.dests_covers ~have:f.Df.dests ~need)
          fs

  module Live = struct
    type t = string list  (** sorted names possibly read downstream *)

    let equal (a : t) (b : t) = a = b
    let join a b = List.sort_uniq compare (a @ b)
  end

  module Live_engine = Flow.Make (Live)

  let union vs live = List.sort_uniq compare (vs @ live)
  let diff vs live = List.filter (fun v -> not (List.mem v vs)) live

  let live_node_backward (g : Sir_cfg.t) (i : int)
      ?(on_op = fun (_ : Sir.comm_op) ~(live : Live.t) -> ignore live)
      (live : Live.t) : Live.t =
    match Sir_cfg.ops_at g i with
    | None -> live
    | Some ops ->
        let live =
          match (ops.Sir.exec, (Sir_cfg.node g i).Sir_cfg.kind) with
          | Sir.Control _, Sir_cfg.Branch { Ast.node = Ast.If (cond, _, _); _ }
            ->
              (* the evaluating processors read the condition *)
              union (Ast.expr_vars cond) live
          | Sir.Control _, _ -> live
          | Sir.Loop_head { index; _ }, _ -> diff [ index ] live
          | Sir.Guarded_assign { lhs; rhs; computes }, _ ->
              let kills =
                match lhs with
                | Ast.LVar v when Df.pred_is_all computes -> [ v ]
                | _ -> []
              in
              union (Ast.expr_vars rhs) (diff kills live)
        in
        let live =
          List.fold_left
            (fun live op ->
              match Df.op_base op with
              | None -> live
              | Some b ->
                  on_op op ~live;
                  union [ b ] live)
            live (List.rev ops.Sir.comms)
        in
        let live =
          List.fold_left
            (fun live (step : Sir.red_step) ->
              match step with
              | Sir.R_mark _ -> live
              | Sir.R_combine ix ->
                  let r = g.Sir_cfg.program.Sir.reductions.(ix) in
                  union (r.Sir.rvar :: r.Sir.loc_vars) live)
            live (List.rev ops.Sir.red_steps)
        in
        diff ops.Sir.mirror live

  type summary = {
    cfg : Sir_cfg.t;
    avail : Avail.t Flow.result;
    live : Live.t Flow.result;
    dead : (Ast.stmt_id * Sir.comm_op) list;
    redundant : (Ast.stmt_id * Sir.comm_op) list;
  }

  let summarize (sir : Sir.program) : summary =
    let cfg = Sir_cfg.build sir in
    let avail =
      Avail_engine.fixpoint ~cfg ~direction:Flow.Forward
        ~boundary:(Avail.Facts (Df.initial_facts sir))
        ~init:Avail.Top ~transfer:(avail_transfer cfg)
    in
    let live =
      Live_engine.fixpoint ~cfg ~direction:Flow.Backward
        ~boundary:(Df.validated_arrays sir) ~init:[]
        ~transfer:(fun i l -> live_node_backward cfg i l)
    in
    let redundant = ref [] in
    Array.iteri
      (fun i _ ->
        match Sir_cfg.ops_at cfg i with
        | None -> ()
        | Some ops ->
            List.iter
              (fun (op : Sir.comm_op) ->
                match Df.fact_of_op ~mirror:ops.Sir.mirror op with
                | None -> ()
                | Some f ->
                    let st =
                      pre_exec cfg ops ~skip_op:op.Sir.uid avail.Flow.input.(i)
                    in
                    if
                      covered st ~excluding:op.Sir.uid ~key:f.Df.key
                        ~need:f.Df.dests ()
                    then redundant := (ops.Sir.sid, op) :: !redundant)
              ops.Sir.comms)
      cfg.Sir_cfg.nodes;
    let dead = ref [] in
    Array.iteri
      (fun i _ ->
        ignore
          (live_node_backward cfg i
             ~on_op:(fun op ~live ->
               match Df.op_base op with
               | Some b when not (List.mem b live) ->
                   let sid =
                     match Sir_cfg.sid_of_node cfg i with
                     | Some s -> s
                     | None -> -1
                   in
                   dead := (sid, op) :: !dead
               | _ -> ())
             live.Flow.input.(i)))
      cfg.Sir_cfg.nodes;
    let by_pos (_, (a : Sir.comm_op)) (_, (b : Sir.comm_op)) =
      compare a.Sir.pos b.Sir.pos
    in
    let dead = List.sort by_pos !dead in
    let redundant =
      List.sort by_pos !redundant
      |> List.filter (fun (_, (op : Sir.comm_op)) ->
             not
               (List.exists
                  (fun (_, (d : Sir.comm_op)) -> d.Sir.uid = op.Sir.uid)
                  dead))
    in
    { cfg; avail; live; dead; redundant }

  (* The E0612 test: [key] valid at [need] in the state the statement at
     node [i] reads. *)
  let covered_at (s : summary) (i : int) ~key ~need : bool =
    let st =
      match Sir_cfg.ops_at s.cfg i with
      | Some ops -> pre_exec s.cfg ops s.avail.Flow.input.(i)
      | None -> s.avail.Flow.input.(i)
    in
    covered st ~key ~need ()

  let pp_avail ppf = function
    | Avail.Top -> Fmt.string ppf "<unreached>"
    | Avail.Facts fs ->
        Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any "; ") Df.pp_fact) fs

  let pp_live ppf (l : Live.t) =
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any "; ") string) l
end

(* ------------------------------------------------------------------ *)
(* The dominance matrix                                                *)
(* ------------------------------------------------------------------ *)

(* Iterative dominator sets over the reverse postorder as plain boolean
   rows: [dom.(n).(d)] = every path from entry to [n] passes through
   [d].  Nodes the entry never reaches keep their all-true row. *)
let dominators (cfg : Phpf_ir.Sir_cfg.t) : bool array array =
  let module Sir_cfg = Phpf_ir.Sir_cfg in
  let n = Sir_cfg.n_nodes cfg in
  let rpo = Sir_cfg.reverse_postorder cfg in
  let dom = Array.init n (fun _ -> Array.make n true) in
  dom.(cfg.Sir_cfg.entry) <- Array.make n false;
  dom.(cfg.Sir_cfg.entry).(cfg.Sir_cfg.entry) <- true;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun v ->
        if v <> cfg.Sir_cfg.entry then begin
          let inter = Array.make n true in
          let have_pred = ref false in
          List.iter
            (fun p ->
              have_pred := true;
              Array.iteri
                (fun i b -> if not b then inter.(i) <- false)
                dom.(p))
            (Sir_cfg.preds cfg v);
          if not !have_pred then Array.fill inter 0 n false;
          inter.(v) <- true;
          if inter <> dom.(v) then begin
            dom.(v) <- inter;
            changed := true
          end
        end)
      rpo
  done;
  dom

(* ------------------------------------------------------------------ *)
(* SSA: the per-query reached-use walk and the scanning builder        *)
(* ------------------------------------------------------------------ *)

(* The reached uses of one definition by walking the φ web from it,
   carrying the set of loop heads crossed so far: a (definition, set)
   state is skipped when a superset was already seen there, and each
   use collects the union of the sets that arrive.  [real_uses d] are
   the (node, name) uses [d] reaches directly, [phi_uses d] the
   (φ, incoming pred) pairs it feeds.  The reference for
   {!Ssa.reached_uses}' table; unlike the table it answers arrays
   too. *)
let reached_walk (g : Cfg.t) (defs : Ssa.def_site array)
    ~(real_uses : Ssa.def_id -> (int * string) list)
    ~(phi_uses : Ssa.def_id -> (Ssa.def_id * int) list) (d : Ssa.def_id) :
    Ssa.use_info list =
  let module S = Set.Make (Int) in
  let visited : (Ssa.def_id, S.t list) Hashtbl.t = Hashtbl.create 32 in
  let results : (int * string, S.t) Hashtbl.t = Hashtbl.create 32 in
  let rec go d crossed =
    let seen =
      match Hashtbl.find_opt visited d with Some l -> l | None -> []
    in
    if not (List.exists (fun s -> S.subset crossed s) seen) then begin
      Hashtbl.replace visited d (crossed :: seen);
      List.iter
        (fun (node, var) ->
          let cur =
            match Hashtbl.find_opt results (node, var) with
            | Some s -> s
            | None -> S.empty
          in
          Hashtbl.replace results (node, var) (S.union cur crossed))
        (real_uses d);
      List.iter
        (fun (phi_id, pred) ->
          match defs.(phi_id) with
          | Ssa.Phi { node = phi_node; _ } ->
              go phi_id
                (if Ssa.is_back_edge g ~pred ~node:phi_node then
                   S.add phi_node crossed
                 else crossed)
          | Ssa.Entry_def _ | Ssa.Node_def _ -> ())
        (phi_uses d)
    end
  in
  go d S.empty;
  Hashtbl.fold
    (fun (use_node, use_var) crossed acc ->
      { Ssa.use_node; use_var; back_edges = S.elements crossed } :: acc)
    results []
  |> List.sort compare

let add_to tbl k x =
  Hashtbl.replace tbl k (x :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

(* Each definition's φ uses, (φ, incoming pred), from the φ args. *)
let phi_uses_of (defs : Ssa.def_site array) :
    (Ssa.def_id, (Ssa.def_id * int) list) Hashtbl.t =
  let tbl = Hashtbl.create 128 in
  Array.iteri
    (fun phi_id site ->
      match site with
      | Ssa.Phi { args; _ } ->
          List.iter (fun (pred, d) -> add_to tbl d (phi_id, pred)) args
      | Ssa.Entry_def _ | Ssa.Node_def _ -> ())
    defs;
  tbl

(* The walk over a built SSA, its uses inverted through the query
   API. *)
let reached_uses (t : Ssa.t) (d : Ssa.def_id) : Ssa.use_info list =
  let real = Hashtbl.create 128 in
  Ssa.fold_uses t (fun ~node ~var d () -> add_to real d (node, var)) ();
  let phis = phi_uses_of t.Ssa.defs in
  let find tbl d = Option.value ~default:[] (Hashtbl.find_opt tbl d) in
  reached_walk t.Ssa.cfg t.Ssa.defs ~real_uses:(find real)
    ~phi_uses:(find phis) d

(* The SSA as the scanning builder below leaves it: its own tables,
   keyed by (node, name). *)
type ssa_ref = {
  r_defs : Ssa.def_site array;
  use_def : (int * string, Ssa.def_id) Hashtbl.t;
  node_def : (int * string, Ssa.def_id) Hashtbl.t;
  phi_at : (int * string, Ssa.def_id) Hashtbl.t;
  r_reached : Ssa.use_info list option array;
}

(* Cytron et al.'s construction read literally: φ placement scans
   every node for every variable's definitions, renaming probes every
   variable for a φ at each node and at each successor, and the node
   defs and uses are recomputed wherever they are asked for.  The
   reference for {!Ssa.build}: the def ids, the φ arguments and every
   query answer must come out identical.  Its reached-use table is
   filled by the walk above. *)
let ssa_build (g : Cfg.t) : ssa_ref =
  let dom = Dom.compute g in
  let n = Cfg.n_nodes g in
  let reachable = Cfg.is_reachable g in
  let vars = Cfg.variables g in
  let defs_tbl = ref [] and n_defs = ref 0 in
  let new_def site =
    let id = !n_defs in
    incr n_defs;
    defs_tbl := site :: !defs_tbl;
    id
  in
  let node_def = Hashtbl.create 128 and phi_at = Hashtbl.create 64 in
  let entry_def = Hashtbl.create 32 in
  List.iter
    (fun v -> Hashtbl.replace entry_def v (new_def (Ssa.Entry_def v)))
    vars;
  for i = 0 to n - 1 do
    if reachable.(i) then
      List.iter
        (fun v ->
          Hashtbl.replace node_def (i, v)
            (new_def (Ssa.Node_def { node = i; var = v })))
        (Cfg.defs g i)
  done;
  List.iter
    (fun v ->
      let work = Queue.create () in
      let on_work = Array.make n false and has_phi = Array.make n false in
      for i = 0 to n - 1 do
        if reachable.(i) && List.mem v (Cfg.defs g i) then begin
          Queue.add i work;
          on_work.(i) <- true
        end
      done;
      if not on_work.(g.Cfg.entry) then begin
        Queue.add g.Cfg.entry work;
        on_work.(g.Cfg.entry) <- true
      end;
      while not (Queue.is_empty work) do
        List.iter
          (fun y ->
            if (not has_phi.(y)) && reachable.(y) then begin
              has_phi.(y) <- true;
              Hashtbl.replace phi_at (y, v)
                (new_def (Ssa.Phi { node = y; var = v; args = [] }));
              if not on_work.(y) then begin
                Queue.add y work;
                on_work.(y) <- true
              end
            end)
          dom.Dom.frontiers.(Queue.pop work)
      done)
    vars;
  let defs = Array.of_list (List.rev !defs_tbl) in
  let use_def = Hashtbl.create 256 in
  let stacks = Hashtbl.create 32 in
  List.iter
    (fun v -> Hashtbl.replace stacks v (ref [ Hashtbl.find entry_def v ]))
    vars;
  let top v =
    match !(Hashtbl.find stacks v) with
    | d :: _ -> d
    | [] -> Hashtbl.find entry_def v
  in
  let push v d =
    let s = Hashtbl.find stacks v in
    s := d :: !s
  in
  let pop v =
    let s = Hashtbl.find stacks v in
    match !s with [] -> () | _ :: tl -> s := tl
  in
  let rec rename i =
    let pushed = ref [] in
    let push_found tbl v =
      match Hashtbl.find_opt tbl (i, v) with
      | Some d ->
          push v d;
          pushed := v :: !pushed
      | None -> ()
    in
    List.iter (push_found phi_at) vars;
    List.iter (fun v -> Hashtbl.replace use_def (i, v) (top v)) (Cfg.uses g i);
    List.iter (push_found node_def) (Cfg.defs g i);
    List.iter
      (fun s ->
        List.iter
          (fun v ->
            match Hashtbl.find_opt phi_at (s, v) with
            | Some d -> (
                match defs.(d) with
                | Ssa.Phi p ->
                    if not (List.mem_assoc i p.args) then
                      p.args <- (i, top v) :: p.args
                | Ssa.Entry_def _ | Ssa.Node_def _ -> assert false)
            | None -> ())
          vars)
      (Cfg.node g i).Cfg.succs;
    List.iter rename dom.Dom.children.(i);
    List.iter pop !pushed
  in
  rename g.Cfg.entry;
  let real = Hashtbl.create 128 in
  Hashtbl.iter (fun (node, var) d -> add_to real d (node, var)) use_def;
  let phis = phi_uses_of defs in
  let find tbl d = Option.value ~default:[] (Hashtbl.find_opt tbl d) in
  let var_of = function
    | Ssa.Entry_def v | Ssa.Node_def { var = v; _ } | Ssa.Phi { var = v; _ }
      ->
        v
  in
  {
    r_defs = defs;
    use_def;
    node_def;
    phi_at;
    r_reached =
      Array.mapi
        (fun d site ->
          if Ast.is_array g.Cfg.prog (var_of site) then None
          else
            Some
              (reached_walk g defs ~real_uses:(find real) ~phi_uses:(find phis)
                 d))
        defs;
  }

(* A built SSA against [ssa_build] of its CFG, through the query API:
   the def sites with their φ args, then for every node and every
   variable (and one name the program never mentions) the reaching
   definition, the real definition and the φ, the number of uses, and
   every definition's reached uses against the walk.  The first
   difference, if any; otherwise how many scalar definitions were
   compared. *)
let ssa_agrees (built : Ssa.t) : (int, string) result =
  let g = built.Ssa.cfg in
  let reference = ssa_build g in
  let names = "no such name" :: Cfg.variables g in
  let pp_def_opt = Fmt.(option ~none:(any "none") int) in
  let query what lookup tbl =
    let diff = ref None in
    for node = 0 to Cfg.n_nodes g - 1 do
      List.iter
        (fun var ->
          if !diff = None then
            let got = lookup built ~node ~var
            and want = Hashtbl.find_opt tbl (node, var) in
            if got <> want then
              diff :=
                Some
                  (Fmt.str "%s of %s at n%d: %a, the scanning builder %a" what
                     var node pp_def_opt got pp_def_opt want))
        names
    done;
    !diff
  in
  let n_uses = Ssa.fold_uses built (fun ~node:_ ~var:_ _ k -> k + 1) 0 in
  let first_diff =
    List.find_map Lazy.force
      [
        lazy
          (if built.Ssa.defs = reference.r_defs then None
           else Some "def sites and φ args differ from the scanning builder");
        lazy (query "reaching_def_at" Ssa.reaching_def_at reference.use_def);
        lazy (query "def_at" Ssa.def_at reference.node_def);
        lazy (query "phi_at" Ssa.phi_at reference.phi_at);
        lazy
          (if n_uses = Hashtbl.length reference.use_def then None
           else
             Some
               (Fmt.str "%d uses folded, the scanning builder has %d" n_uses
                  (Hashtbl.length reference.use_def)));
      ]
  in
  match first_diff with
  | Some why -> Error why
  | None -> (
      let pp_uses =
        Fmt.(
          list ~sep:sp (fun ppf (u : Ssa.use_info) ->
              pf ppf "n%d{%a}" u.Ssa.use_node (list ~sep:comma int)
                u.Ssa.back_edges))
      in
      let compared = ref 0 and diff = ref None in
      Array.iteri
        (fun d want ->
          if !diff = None then
            match
              (want, try Some (Ssa.reached_uses built d) with Invalid_argument _ -> None)
            with
            | Some want, Some got ->
                incr compared;
                if got <> want then
                  diff :=
                    Some
                      (Fmt.str "reached uses of %a: table [%a], walk [%a]"
                         (Ssa.pp_def built) d pp_uses got pp_uses want)
            | None, None -> ()
            | Some _, None | None, Some _ ->
                diff :=
                  Some (Fmt.str "%a: scalar and array disagree" (Ssa.pp_def built) d))
        reference.r_reached;
      match !diff with Some why -> Error why | None -> Ok !compared)

(* [Ssa.build] of [g] against the scanning builder. *)
let ssa_vs_reference (g : Cfg.t) : (int, string) result =
  ssa_agrees (Ssa.build g)

(* ------------------------------------------------------------------ *)
(* Dependence queries by walking the loop body                         *)
(* ------------------------------------------------------------------ *)

(* The dependence test as it derived every form per query: both
   references' affine subscripts and every enclosing loop's bounds are
   rebuilt by name at each call, and the write's indices below the
   shared level renamed apart with a prime.  The reference for
   {!Depend}'s forms derived once and numbered by level. *)
module Depend_by_name = struct
  type var_bounds = { lo : Affine.t option; hi : Affine.t option }

  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

  (* Bounds of each loop index around statement [sid], innermost first.
     Each bound may reference outer indices (triangular loops). *)
  let bounds_env (prog : Ast.program) (nest : Nest.t) (sid : Ast.stmt_id)
      ~(rename : string -> string) ~(renamed_from : int) :
      (string * var_bounds) list =
    let loops = Nest.enclosing_loops nest sid in
    List.mapi
      (fun k (li : Nest.loop_info) ->
        let outer =
          List.filteri (fun k' _ -> k' < k) loops
          |> List.map (fun (l : Nest.loop_info) -> l.Nest.loop.Ast.index)
        in
        let name_of v =
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
        let loop = li.Nest.loop in
        let idx_name =
          if k >= renamed_from then rename loop.Ast.index else loop.Ast.index
        in
        match Ast.const_int_opt prog loop.Ast.step with
        | Some 1 -> (idx_name, { lo = aff loop.Ast.lo; hi = aff loop.Ast.hi })
        | _ -> (idx_name, { lo = None; hi = None }))
      loops

  (* Interval of an affine form, substituting bounded variables from
     the end of [env] (innermost) outward. *)
  let interval (d : Affine.t) (env : (string * var_bounds) list) :
      (int * int) option =
    let rec subst (lo : Affine.t) (hi : Affine.t) = function
      | [] ->
          if Affine.is_constant lo && Affine.is_constant hi then
            Some (lo.Affine.const, hi.Affine.const)
          else None
      | (v, b) :: rest -> (
          let sub_one (f : Affine.t) ~(use_lo : bool) : Affine.t option =
            let c = Affine.coeff f v in
            if c = 0 then Some f
            else
              let bound = if c > 0 = use_lo then b.lo else b.hi in
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
          in
          match (sub_one lo ~use_lo:true, sub_one hi ~use_lo:false) with
          | Some lo', Some hi' -> subst lo' hi' rest
          | _ -> None)
    in
    subst d d (List.rev env)

  let may_equal ~(env : (string * var_bounds) list) (f : Affine.t)
      (g : Affine.t) : bool =
    let d = Affine.sub f g in
    if Affine.is_constant d then d.Affine.const = 0
    else
      let gc = List.fold_left gcd 0 (List.map snd d.Affine.terms) in
      if gc <> 0 && d.Affine.const mod gc <> 0 then false
      else
        match interval d env with
        | Some (lo, hi) -> lo <= 0 && 0 <= hi
        | None -> true

  let may_conflict ?(shared_level = 0) (prog : Ast.program) (nest : Nest.t)
      (w : Depend.ref_ctx) (r : Depend.ref_ctx) : bool =
    if not (String.equal w.Depend.base r.Depend.base) then false
    else if List.length w.Depend.subs <> List.length r.Depend.subs then true
    else
      let rename v = v ^ "'" in
      let w_indices = Nest.enclosing_indices nest w.Depend.sid in
      let r_indices = Nest.enclosing_indices nest r.Depend.sid in
      let w_aff sub =
        match Affine.of_subscript prog ~indices:w_indices sub with
        | Some a ->
            Some
              {
                Affine.const = a.Affine.const;
                terms =
                  List.map
                    (fun (v, c) ->
                      let rec pos k = function
                        | [] -> -1
                        | x :: _ when String.equal x v -> k
                        | _ :: tl -> pos (k + 1) tl
                      in
                      if pos 0 w_indices >= shared_level then (rename v, c)
                      else (v, c))
                    a.Affine.terms;
              }
        | None -> None
      in
      let r_aff sub = Affine.of_subscript prog ~indices:r_indices sub in
      let env =
        bounds_env prog nest r.Depend.sid ~rename ~renamed_from:max_int
        @ bounds_env prog nest w.Depend.sid ~rename ~renamed_from:shared_level
      in
      List.for_all2
        (fun ws rs ->
          match (w_aff ws, r_aff rs) with
          | Some fa, Some fb -> may_equal ~env fa fb
          | _ -> true)
        w.Depend.subs r.Depend.subs

  (* Every array write of the program against every read reference of
     every statement (array elements with their subscripts, scalars
     without), at every shared level up to the two statements' common
     depth: [Depend.may_conflict] on the forms of [Depend.build] against
     this one.  The first disagreement, or how many pairs agreed. *)
  let forms_vs_by_name (prog : Ast.program) : (int, string) result =
    let nest = Nest.build prog in
    let deps = Depend.build prog nest in
    let writes = ref [] and reads = ref [] in
    Ast.iter_program
      (fun s ->
        (match s.Ast.node with
        | Ast.Assign (Ast.LArr (a, subs), _) ->
            writes := { Depend.sid = s.Ast.sid; base = a; subs } :: !writes
        | _ -> ());
        List.iter
          (Ast.iter_expr (function
            | Ast.Arr (a, subs) ->
                reads := { Depend.sid = s.Ast.sid; base = a; subs } :: !reads
            | _ -> ()))
          (Ast.own_exprs s))
      prog;
    let asked = ref 0 and diff = ref None in
    List.iter
      (fun (w : Depend.ref_ctx) ->
        List.iter
          (fun (r : Depend.ref_ctx) ->
            if w.Depend.base = r.Depend.base then
              for shared_level = 0 to Nest.common_level nest w.Depend.sid r.Depend.sid do
                if !diff = None then begin
                  incr asked;
                  let got = Depend.may_conflict ~shared_level deps w r
                  and want = may_conflict ~shared_level prog nest w r in
                  if got <> want then
                    diff :=
                      Some
                        (Fmt.str
                           "write %s at s%d, read at s%d, shared level %d: \
                            forms %b, by name %b"
                           w.Depend.base w.Depend.sid r.Depend.sid shared_level
                           got want)
                end
              done)
          (List.rev !reads))
      (List.rev !writes);
    match !diff with Some why -> Error why | None -> Ok !asked
end

module Loop_walk = struct
  (* Every statement of the loop visited and every write of the read's
     base tested, with no early exit. *)
  let write_feeds_read_in_loop (prog : Ast.program) (nest : Nest.t)
      (li : Nest.loop_info) (r : Depend.ref_ctx) : bool =
    let shared_level = li.Nest.level - 1 in
    let found = ref false in
    Ast.iter_stmts
      (fun s ->
        match s.Ast.node with
        | Ast.Assign (Ast.LArr (a, subs), _) when a = r.Depend.base ->
            if
              Depend_by_name.may_conflict ~shared_level prog nest
                { Depend.sid = s.Ast.sid; base = a; subs }
                r
            then found := true
        | Ast.Assign (Ast.LVar v, _) when v = r.Depend.base ->
            found := true
        | _ -> ())
      li.Nest.loop.Ast.body;
    !found

  (* Every read reference of every statement (array elements with their
     subscripts, scalars without), each asked at every enclosing level
     against [Depend]'s index: the first disagreement, or how many
     queries agreed. *)
  let index_vs_walk (prog : Ast.program) : (int, string) result =
    let nest = Nest.build prog in
    let deps = Depend.build prog nest in
    let asked = ref 0 and diff = ref None in
    Ast.iter_program
      (fun s ->
        let reads = ref [] in
        List.iter
          (Ast.iter_expr (function
            | Ast.Arr (a, subs) -> reads := (a, subs) :: !reads
            | Ast.Var v -> reads := (v, []) :: !reads
            | _ -> ()))
          (Ast.own_exprs s);
        List.iter
          (fun (base, subs) ->
            let r = { Depend.sid = s.Ast.sid; base; subs } in
            List.iter
              (fun (li : Nest.loop_info) ->
                if !diff = None then begin
                  incr asked;
                  let got = Depend.write_feeds_read_in_loop deps li r
                  and want = write_feeds_read_in_loop prog nest li r in
                  if got <> want then
                    diff :=
                      Some
                        (Fmt.str "s%d reading %s at level %d: index %b, walk %b"
                           s.Ast.sid base li.Nest.level got want)
                end)
              (Nest.enclosing_loops nest s.Ast.sid))
          (List.rev !reads))
      prog;
    match !diff with Some why -> Error why | None -> Ok !asked
end

(* ------------------------------------------------------------------ *)
(* rte one deletion at a time                                          *)
(* ------------------------------------------------------------------ *)

(* Re-run both fixpoints after every deletion and delete the first op of
   the recomputed redundant class, witnessed by [covers_of] on that
   analysis. *)
let rte_loop (p : Phpf_ir.Sir.program) : Phpf_ir.Sir.witness list =
  let open Phpf_ir in
  let ctx = Sir_dataflow.prepare p and e = Sir_opt.editor p in
  let rec go acc =
    let s = Sir_dataflow.analyze ctx in
    match s.Sir_dataflow.redundant with
    | [] -> List.rev acc
    | (sid, (op : Sir.comm_op)) :: _ -> (
        let covers =
          match Sir_dataflow.instance_node s.Sir_dataflow.cfg sid with
          | Some i -> Sir_dataflow.covers_of s i op.Sir.uid
          | None -> []
        in
        let w = Sir.W_redundant { uid = op.Sir.uid; covers } in
        match Sir_opt.edit e w with
        | None -> invalid_arg "rte_loop: the analysis selected a deleted op"
        | Some ops ->
            Sir_dataflow.replan ctx ops.Sir.sid;
            go (w :: acc))
  in
  go []

(* [Sir_opt.rte] and [rte_loop] on copies of [sir]: the first difference
   in witnesses or in the rewritten program, or the number of
   deletions. *)
let rte_vs_loop (sir : Phpf_ir.Sir.program) : (int, string) result =
  let open Phpf_ir in
  let copy () = { sir with Sir.stmts = Hashtbl.copy sir.Sir.stmts } in
  let fast = copy () and slow = copy () in
  let got = Sir_opt.rte fast and want = rte_loop slow in
  let pp_w ppf = function
    | Sir.W_redundant { uid; covers } ->
        Fmt.pf ppf "u%d covered by [%a]" uid
          Fmt.(
            list ~sep:comma (fun ppf -> function
              | Sir.F_init -> string ppf "init"
              | Sir.F_op u -> pf ppf "u%d" u
              | Sir.F_write s -> pf ppf "s%d" s))
          covers
    | _ -> Fmt.string ppf "not an rte witness"
  in
  let rec first_diff k = function
    | x :: xs, y :: ys when x = y -> first_diff (k + 1) (xs, ys)
    | x :: _, y :: _ -> Fmt.str "deletion %d: %a, loop %a" k pp_w x pp_w y
    | x :: _, [] -> Fmt.str "deletion %d: %a, loop stops" k pp_w x
    | [], y :: _ -> Fmt.str "stops at deletion %d, loop %a" k pp_w y
    | [], [] -> "none"
  in
  if got <> want then Error ("witnesses differ at " ^ first_diff 0 (got, want))
  else if Sir_pp.to_string fast <> Sir_pp.to_string slow then
    Error "same witnesses, different programs"
  else Ok (List.length got)

(* ------------------------------------------------------------------ *)
(* One cache shard as a second-chance queue                            *)
(* ------------------------------------------------------------------ *)

(* The reference for one {!Phpf_driver.Memo} shard, written as the FIFO
   second-chance queue rather than a ring with a hand: entries in the
   order an eviction examines them, each with its reference bit.  A hit
   sets the bit; a new entry joins the back with its bit clear; an
   insert into a full queue pops the front, sending an entry with its
   bit set to the back with the bit cleared, until it pops one whose bit
   was clear, which it drops. *)
module Clock_queue = struct
  type 'a t = { capacity : int; mutable queue : (string * 'a * bool) list }

  let create capacity = { capacity; queue = [] }
  let entries t = List.length t.queue

  let find t k =
    match List.find_opt (fun (k', _, _) -> k' = k) t.queue with
    | None -> None
    | Some (_, v, _) ->
        t.queue <-
          List.map
            (fun ((k', v', _) as e) -> if k' = k then (k', v', true) else e)
            t.queue;
        Some v

  let add t k v =
    if List.exists (fun (k', _, _) -> k' = k) t.queue then false
    else begin
      let rec make_room = function
        | (k', v', true) :: rest -> make_room (rest @ [ (k', v', false) ])
        | (_, _, false) :: rest -> rest
        | [] -> []
      in
      let kept =
        if entries t < t.capacity then t.queue else make_room t.queue
      in
      t.queue <- kept @ [ (k, v, false) ];
      true
    end

  let clear t = t.queue <- []
end
