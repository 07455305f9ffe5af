(** Dominator tree and dominance frontiers (Cooper-Harvey-Kennedy
    iterative dominators; Cytron et al. frontiers) — the prerequisites
    for SSA construction.  The dominator core works on any graph: the
    recovery-plan audit runs it over the lowered IR's control-flow
    graph. *)

type t = {
  idom : int array;
      (** immediate dominator; [idom.(entry) = entry]; -1 unreachable *)
  rpo_index : int array;  (** reverse-postorder number; -1 unreachable *)
  frontiers : int list array;  (** dominance frontier per node *)
  children : int list array;  (** dominator-tree children *)
}

(** The Cooper-Harvey-Kennedy iteration over any graph of [n] nodes,
    given its entry, each node's predecessors and the reverse postorder
    of the nodes reachable from the entry.  Returns [(idom, rpo_index)]
    as in {!t}. *)
val immediate :
  n:int ->
  entry:int ->
  preds:(int -> int list) ->
  rpo:int list ->
  int array * int array

(** [idom_dominates idom a b]: does [a] dominate [b] in the tree
    [idom]?  (Reflexive; [false] for an unreachable [b].) *)
val idom_dominates : int array -> int -> int -> bool

val compute : Cfg.t -> t

(** Does [a] dominate [b]?  (Reflexive.) *)
val dominates : t -> int -> int -> bool
