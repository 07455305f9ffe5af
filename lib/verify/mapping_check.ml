(** Mapping-validity checker (paper §2.1, §2.3, §3).

    A privatized scalar mapping [Priv_aligned {target; level}] asserts
    that the value is consumed only within one iteration of the loop at
    nesting [level] around its definition; [Priv_no_align] asserts the
    same for {e some} enclosing loop.  Both are audited here directly
    from {!Hpf_analysis.Ssa.reached_uses}, the table the SSA computes
    once per program: a use outside the validity loop is [E0601], a use
    reached across the validity loop's (or an enclosing loop's) back
    edge is [E0602].  Reduction mappings are
    exempt from the scope conditions — their accumulator legitimately
    survives the loop — and are instead checked for replication
    dimensions consistent with the grid ([E0605]).  Structural defects
    of any record (undeclared target, level beyond the nesting depth,
    dangling statement id) are [E0606]. *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping
open Phpf_core

let declared prog name = Ast.find_decl prog name <> None

(* Grid dims are 0-based; anything out of range or repeated is E0605. *)
let check_grid_dims ~(what : string) (d : Decisions.t) (dims : int list)
    (acc : Diag.t list ref) =
  let rank = Grid.rank d.Decisions.env.Layout.grid in
  List.iteri
    (fun i g ->
      if g < 0 || g >= rank then
        acc :=
          Diag.errorf ~code:Codes.e_repl_dims
            "%s names grid dimension %d, but the grid has rank %d" what g rank
          :: !acc
      else if List.exists (( = ) g) (List.filteri (fun j _ -> j < i) dims)
      then
        acc :=
          Diag.errorf ~code:Codes.e_repl_dims
            "%s names grid dimension %d twice" what g
          :: !acc)
    dims

(* Scope audit of one privatized definition against a validity loop:
   every reached use must sit inside the loop, and must not be reached
   across the back edge of the loop or of any loop enclosing it. *)
let check_scope (d : Decisions.t) ~(def : Ssa.def_id) ~(def_sid : Ast.stmt_id)
    ~(validity : Nest.loop_info) (acc : Diag.t list ref) =
  let var = Ssa.def_var d.Decisions.ssa def in
  let nest = d.Decisions.nest in
  let outer_or_validity lsid =
    lsid = validity.Nest.loop_sid
    || Nest.loop_encloses nest ~loop_sid:lsid validity.Nest.loop_sid
  in
  List.iter
    (fun (u : Ssa.use_info) ->
      match Vutil.sid_of_node d u.Ssa.use_node with
      | None -> ()
      | Some use_sid ->
          if
            not
              (Nest.loop_encloses nest ~loop_sid:validity.Nest.loop_sid
                 use_sid)
          then
            acc :=
              Diag.errorf ~code:Codes.e_scope
                "privatized %s defined at s%d (valid within loop s%d, level \
                 %d) is used at s%d outside that loop"
                var def_sid validity.Nest.loop_sid validity.Nest.level use_sid
              :: !acc
          else
            let crossed =
              List.filter_map (fun n -> Vutil.loop_sid_of_head d n)
                u.Ssa.back_edges
              |> List.filter outer_or_validity
            in
            List.iter
              (fun lsid ->
                acc :=
                  Diag.errorf ~code:Codes.e_back_edge
                    "privatized %s defined at s%d is live across the back \
                     edge of loop s%d (use at s%d reads a previous \
                     iteration's value)"
                    var def_sid lsid use_sid
                  :: !acc)
              crossed)
    (Ssa.reached_uses d.Decisions.ssa def)

(* Does [v] place the owner of [r] under the HPF directives?  Only
   subscripts in distributed dimensions do (paper §2.2).  Read from the
   directive spec, not from [Align_level], the rule this checker
   audits; an owner the spec cannot express may vary with any
   subscript variable. *)
let places_owner (d : Decisions.t) (r : Aref.t) (v : string) : bool =
  Array.exists
    (function
      | Ownership.O_unknown -> true
      | Ownership.O_affine { pos; _ } -> List.mem v (Affine.vars pos)
      | Ownership.O_all | Ownership.O_fixed _ -> false)
    (Decisions.directive_spec d r)

let check_scalar (c : Compiler.compiled) (def : Ssa.def_id)
    (m : Decisions.scalar_mapping) (acc : Diag.t list ref) =
  let d = c.Compiler.decisions in
  let prog = c.Compiler.prog in
  match Ssa.def_node d.Decisions.ssa def with
  | None -> () (* entry value: never privatized *)
  | Some node -> (
      let var = Ssa.def_var d.Decisions.ssa def in
      match (Vutil.sid_of_node d node, m) with
      | None, _ | _, Decisions.Replicated -> ()
      | Some def_sid, Decisions.Priv_no_align -> (
          (* valid iff privatizable w.r.t. the outermost enclosing loop:
             escaping it, or crossing its back edge, defeats every
             candidate scope *)
          match Nest.enclosing_loops d.Decisions.nest def_sid with
          | [] ->
              acc :=
                Diag.errorf ~code:Codes.e_structural
                  "%s at s%d is privatized but the definition is outside \
                   every loop"
                  var def_sid
                :: !acc
          | outermost :: _ ->
              check_scope d ~def ~def_sid ~validity:outermost acc)
      | Some def_sid, Decisions.Priv_aligned { target; level } -> (
          if not (declared prog target.Aref.base) then
            acc :=
              Diag.errorf ~code:Codes.e_structural
                "%s at s%d is aligned with undeclared array %s" var def_sid
                target.Aref.base
              :: !acc;
          (* the paper's SubscriptAlignLevel condition: the target's
             owner may only vary with indices of loops at or above the
             validity level, else it varies within the scope the mapping
             claims stable *)
          List.iter
            (fun sub ->
              List.iter
                (fun v ->
                  let lv = Nest.index_level d.Decisions.nest def_sid v in
                  if lv > level && places_owner d target v then
                    acc :=
                      Diag.errorf ~code:Codes.e_structural
                        "%s at s%d: alignment target %a varies with index \
                         %s of the level-%d loop, inside its own validity \
                         level %d"
                        var def_sid Aref.pp target v lv level
                      :: !acc)
                (Ast.expr_vars sub))
            target.Aref.subs;
          match Nest.loop_at_level d.Decisions.nest def_sid level with
          | None ->
              acc :=
                Diag.errorf ~code:Codes.e_structural
                  "%s at s%d has alignment level %d but only %d enclosing \
                   loop(s)"
                  var def_sid level
                  (Nest.level d.Decisions.nest def_sid)
                :: !acc
          | Some validity -> check_scope d ~def ~def_sid ~validity acc)
      | Some def_sid, Decisions.Priv_reduction { target; repl_grid_dims; _ }
        ->
          if not (declared prog target.Aref.base) then
            acc :=
              Diag.errorf ~code:Codes.e_structural
                "%s at s%d is reduction-mapped to undeclared array %s" var
                def_sid target.Aref.base
              :: !acc;
          check_grid_dims
            ~what:
              (Fmt.str "reduction mapping of %s at s%d" var def_sid)
            d repl_grid_dims acc)

let check_array (c : Compiler.compiled) ((base, loop_sid) : string * int)
    (m : Decisions.array_mapping) (acc : Diag.t list ref) =
  let d = c.Compiler.decisions in
  let prog = c.Compiler.prog in
  if not (Ast.is_array prog base) then
    acc :=
      Diag.errorf ~code:Codes.e_structural
        "array privatization recorded for %s, which is not a declared array"
        base
      :: !acc;
  (match Ast.find_stmt prog loop_sid with
  | Some { Ast.node = Ast.Do _; _ } -> ()
  | _ ->
      acc :=
        Diag.errorf ~code:Codes.e_structural
          "array privatization of %s keyed to s%d, which is not a loop" base
          loop_sid
        :: !acc);
  match m with
  | Decisions.Arr_priv { target = None } -> ()
  | Decisions.Arr_priv { target = Some t } ->
      if not (declared prog t.Aref.base) then
        acc :=
          Diag.errorf ~code:Codes.e_structural
            "privatized %s is aligned with undeclared array %s" base
            t.Aref.base
          :: !acc
  | Decisions.Arr_partial_priv { target; priv_grid_dims } ->
      if not (declared prog target.Aref.base) then
        acc :=
          Diag.errorf ~code:Codes.e_structural
            "partially privatized %s is aligned with undeclared array %s"
            base target.Aref.base
          :: !acc;
      check_grid_dims
        ~what:(Fmt.str "partial privatization of %s w.r.t. loop s%d" base
                 loop_sid)
        d priv_grid_dims acc

(* W0601: a use whose φ-collapsed reaching definitions carry mappings
   that resolve to different owner specs — the paper's evaluation rule
   ("the mapping at a use is its first reaching definition's") is only
   well-defined when they agree. *)
let check_phi_consistency (c : Compiler.compiled) (acc : Diag.t list ref) =
  let d = c.Compiler.decisions in
  let ssa = d.Decisions.ssa in
  let cfg = ssa.Ssa.cfg in
  let seen = Hashtbl.create 16 in
  for node = 0 to Cfg.n_nodes cfg - 1 do
    List.iter
      (fun var ->
        if not (Ast.is_array c.Compiler.prog var) then
          match Ssa.reaching_defs ssa ~node ~var with
          | [] | [ _ ] -> ()
          | defs -> (
              match Vutil.sid_of_node d node with
              | None -> ()
              | Some use_sid ->
                  if not (Hashtbl.mem seen (use_sid, var)) then begin
                    let specs =
                      List.map
                        (fun def ->
                          Decisions.spec_of_scalar_mapping d
                            (Decisions.scalar_mapping_of_def d def))
                        defs
                    in
                    let inconsistent =
                      match specs with
                      | [] -> false
                      | s0 :: rest ->
                          List.exists
                            (fun s -> not (Vutil.equal_spec s0 s))
                            rest
                    in
                    if inconsistent then begin
                      Hashtbl.add seen (use_sid, var) ();
                      acc :=
                        Diag.warningf ~code:Codes.w_phi
                          "use of %s at s%d merges definitions with \
                           inconsistent mappings (owner depends on the path \
                           taken)"
                          var use_sid
                        :: !acc
                    end
                  end))
      (Cfg.uses cfg node)
  done

let check (c : Compiler.compiled) : Diag.t list =
  let d = c.Compiler.decisions in
  let acc = ref [] in
  List.iter
    (fun (def, m) -> check_scalar c def m acc)
    (Decisions.scalar_mappings d);
  List.iter (fun (key, m) -> check_array c key m acc) (Decisions.array_mappings d);
  List.iter
    (fun (sid, _) ->
      match Ast.find_stmt c.Compiler.prog sid with
      | Some { Ast.node = Ast.If _; _ } -> ()
      | _ ->
          acc :=
            Diag.errorf ~code:Codes.e_structural
              "control privatization recorded for s%d, which is not an IF"
              sid
            :: !acc)
    (Decisions.ctrl_entries d);
  check_phi_consistency c acc;
  List.rev !acc
