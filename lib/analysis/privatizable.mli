(** Privatizability tests (paper §2.2 [IsPrivatizable], §3.1): a scalar
    definition is privatizable w.r.t. loop [L] when its value neither
    flows outside [L] nor across [L]'s back edge; the [NEW] clause
    asserts it outright.  Arrays come from directives or (extension) the
    automatic analysis. *)

open Hpf_lang

type t = { prog : Ast.program; nest : Nest.t; ssa : Ssa.t }

(** [make nest prog ssa]: [nest] is [prog]'s loop nest. *)
val make : Nest.t -> Ast.program -> Ssa.t -> t

(** Is the definition privatizable with respect to the given loop? *)
val scalar_def_privatizable :
  t -> def:Ssa.def_id -> loop_sid:Ast.stmt_id -> bool

(** Outermost loop the definition is privatizable against, if any. *)
val outermost_privatizable_loop :
  t -> def:Ssa.def_id -> Nest.loop_info option

(** Innermost such loop — the one the mapping algorithm uses, since a
    larger level admits more alignment targets. *)
val innermost_privatizable_loop :
  t -> def:Ssa.def_id -> Nest.loop_info option

val privatizable_innermost : t -> def:Ssa.def_id -> bool

(** Is the definition the unique reaching definition of all its reached
    uses (paper Fig. 3's [IsUniqueDef])? *)
val is_unique_def : t -> def:Ssa.def_id -> bool

type array_priv_source =
  | From_new  (** listed in the loop's [NEW] clause *)
  | Inferred  (** inferred from an [INDEPENDENT]-only loop (paper §3.1) *)
  | Auto  (** proved by {!Auto_priv} (future-work extension) *)

(** Arrays privatizable w.r.t. the loop, with the evidence. *)
val privatizable_arrays :
  t -> Nest.loop_info -> (string * array_priv_source) list
