(* Test-side references for the runtime's closed-form fast paths.

   The enumerative ownership oracles expand per-dimension owner
   coordinates into explicit, ascending pid lists by cartesian product —
   the straightforward reading of the mapping rules that the library's
   closed-form sets ({!Hpf_mapping.Pid_set}, {!Hpf_spmd.Concrete})
   must agree with.  [relower] lowers a compiled record's (possibly
   mutated) decisions and schedule afresh, for corruption tests that
   execute exactly the data movement they describe. *)

open Hpf_lang
open Hpf_analysis
open Hpf_mapping
open Phpf_core
open Hpf_spmd

(* Expand per-dimension coordinates into linear processor ids,
   lexicographically (ascending ids). *)
let pids (env : Layout.env) (dims : Concrete.dims) : int list =
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
  pids d.Decisions.env (Concrete.owner d m ?as_def r)

(* Processors executing statement [s] in the current iteration ([m]
   holds the loop indices).  [G_union] resolves to the union over the
   sibling statements of the innermost enclosing loop, each sibling's
   out-of-scope loop indices widened to their whole axis. *)
let executing_pids (d : Decisions.t) (m : Memory.t) (s : Ast.stmt) :
    int list =
  let env = d.Decisions.env in
  let everyone = pids env (Concrete.all_dims env) in
  match Decisions.guard_of_stmt d s with
  | Decisions.G_all -> everyone
  | Decisions.G_ref r -> owner_pids d m ~as_def:true r
  | Decisions.G_ref_repl (r, repl) ->
      pids env (Concrete.owner d m ~skip_dims:repl r)
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
                pids env (Concrete.owner d m ~as_def:true ~widen_var r)
            | Decisions.G_ref_repl (r, repl) ->
                pids env (Concrete.owner d m ~widen_var ~skip_dims:repl r)
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
