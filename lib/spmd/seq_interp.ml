(** Reference sequential interpreter for the kernel language.

    Executes a program with Fortran semantics over a single {!Memory};
    serves as the gold standard the SPMD interpreter is validated
    against, and as the execution driver for the timing simulator
    (callers can observe every statement instance via [on_stmt]).

    Each run compiles the program once against its memory's layout:
    every statement becomes a closure over slot-resolved expressions
    ({!Eval}), so executing an instance does no name lookup. *)

open Hpf_lang

exception Exit_loop of string option
exception Cycle_loop of string option

exception
  Fuel_exhausted of {
    loc : Loc.t option;
    sid : Ast.stmt_id;
    budget : int;
  }

(** Maximum statement instances executed before aborting (guards against
    runaway loops in tests).  Overridable per run via [config.fuel] and
    from the CLI via [phpfc simulate --fuel N]. *)
let default_fuel = 200_000_000

type config = {
  fuel : int;
  on_stmt : (Ast.stmt -> Memory.t -> unit) option;
      (** called before each executed statement instance *)
}

let default_config = { fuel = default_fuel; on_stmt = None }

let run_in ?(config = default_config) (m : Memory.t) (prog : Ast.program) :
    unit =
  let l = Memory.layout_of m in
  (* a budget of N runs N instances: instance N+1 raises as it starts *)
  let fuel = ref config.fuel in
  let tick =
    let out_of_fuel (s : Ast.stmt) =
      raise
        (Fuel_exhausted
           { loc = s.Ast.loc; sid = s.Ast.sid; budget = config.fuel })
    in
    match config.on_stmt with
    | None ->
        fun s ->
          if !fuel <= 0 then out_of_fuel s;
          decr fuel
    | Some f ->
        fun s ->
          if !fuel <= 0 then out_of_fuel s;
          decr fuel;
          f s m
  in
  let slot v =
    match Memory.slot l v with
    | Some i -> i
    | None -> invalid_arg ("Seq_interp: no slot for " ^ v)
  in
  let rec block (ss : Ast.stmt list) : unit -> unit =
    match Array.of_list (List.map stmt ss) with
    | [||] -> fun () -> ()
    | [| a |] -> a
    | cs ->
        fun () ->
          for k = 0 to Array.length cs - 1 do
            (Array.unsafe_get cs k) ()
          done
  (* each statement instance stamps runtime errors with its own identity
     (innermost wins), so faults escaping [run] point at source lines *)
  and stmt (s : Ast.stmt) : unit -> unit =
    let body = node s in
    fun () -> Memory.locate_errors s body
  and node (s : Ast.stmt) : unit -> unit =
    match s.Ast.node with
    | Ast.Assign (Ast.LVar x, rhs) ->
        let rhs = Eval.compile l rhs and i = slot x in
        fun () ->
          tick s;
          Memory.set_slot m i (rhs m)
    | Ast.Assign (Ast.LArr (a, subs), rhs) -> (
        let rhs = Eval.compile l rhs and idx = Eval.index l subs in
        match Memory.cell l a with
        | Some ci ->
            fun () ->
              tick s;
              let v = rhs m in
              Memory.write_elem m ci (idx m) v
        | None ->
            fun () ->
              tick s;
              ignore (rhs m);
              ignore (idx m);
              Memory.rerr "write of unbound array %s" a)
    | Ast.If (c, t, e) ->
        let c = Eval.compile_bool l c and t = block t and e = block e in
        fun () ->
          tick s;
          if c m then t () else e ()
    | Ast.Exit name ->
        let exn = Exit_loop name in
        fun () ->
          tick s;
          raise exn
    | Ast.Cycle name ->
        let exn = Cycle_loop name in
        fun () ->
          tick s;
          raise exn
    | Ast.Do d ->
        let lo = Eval.compile_int l d.Ast.lo
        and hi = Eval.compile_int l d.Ast.hi
        and step = Eval.compile_int l d.Ast.step
        and i = slot d.Ast.index
        and body = block d.Ast.body in
        let name = d.Ast.loop_name in
        fun () ->
          tick s;
          let lo = lo m in
          let hi = hi m in
          let step = step m in
          if step = 0 then Memory.rerr "zero loop step";
          let k = ref lo in
          try
            while if step > 0 then !k <= hi else !k >= hi do
              Memory.set_slot m i (Value.I !k);
              (try body () with
              | Cycle_loop None -> ()
              | Cycle_loop (Some n) when name = Some n -> ());
              k := !k + step
            done
          with
          | Exit_loop None -> ()
          | Exit_loop (Some n) when name = Some n -> ()
  in
  block prog.Ast.body ()

let run ?(config = default_config) ?(init : (Memory.t -> unit) option)
    (prog : Ast.program) : Memory.t =
  let m = Memory.create prog in
  (match init with Some f -> f m | None -> ());
  run_in ~config m prog;
  m
