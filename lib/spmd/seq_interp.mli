(** Reference sequential interpreter for the kernel language (Fortran
    semantics).  The gold standard the SPMD interpreter is validated
    against, and the engine the timing simulator runs.  Each run
    compiles the program once against its memory's {!Memory.layout}, so
    statement instances do no name lookup. *)

open Hpf_lang

exception Exit_loop of string option
exception Cycle_loop of string option

(** The statement-instance budget ran out: the program looped longer
    than [config.fuel] instances.  Carries the location and id of the
    statement about to execute, for a located [E0704] diagnostic at the
    CLI boundary. *)
exception
  Fuel_exhausted of {
    loc : Loc.t option;
    sid : Ast.stmt_id;
    budget : int;
  }

(** Default statement-instance budget before aborting (guards against
    runaway loops).  Override per run via [config.fuel] or
    [phpfc simulate --fuel N]. *)
val default_fuel : int

type config = {
  fuel : int;
  on_stmt : (Ast.stmt -> Memory.t -> unit) option;
      (** called before each executed statement instance *)
}

val default_config : config

(** Execute a program.  [init] seeds the fresh memory (e.g. {!Init.init});
    returns the final memory.
    @raise Memory.Runtime_error on runtime faults.
    @raise Fuel_exhausted when the statement budget runs out. *)
val run :
  ?config:config -> ?init:(Memory.t -> unit) -> Ast.program -> Memory.t

(** [run_in m prog] executes [prog] in the existing memory [m], whose
    layout must give a slot to every scalar [prog] assigns and every
    loop index (a layout built from [prog], or from a lowering of it).
    Same faults, fuel and [on_stmt] discipline as {!run}.
    @raise Invalid_argument when the layout lacks such a slot. *)
val run_in : ?config:config -> Memory.t -> Ast.program -> unit
