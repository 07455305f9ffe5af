(** Dominator tree and dominance frontiers.

    Iterative algorithm of Cooper, Harvey & Kennedy ("A Simple, Fast
    Dominance Algorithm"), followed by Cytron et al.'s dominance-frontier
    computation — the prerequisites for SSA construction.  The CHK core
    ({!immediate}) takes any graph, so the SSA builder and the
    recovery-plan audit over the lowered IR share it. *)

type t = {
  idom : int array;  (** immediate dominator; [idom.(entry) = entry]; -1 for unreachable *)
  rpo_index : int array;  (** reverse-postorder number; -1 for unreachable *)
  frontiers : int list array;  (** dominance frontier per node *)
  children : int list array;  (** dominator-tree children *)
}

let immediate ~(n : int) ~(entry : int) ~(preds : int -> int list)
    ~(rpo : int list) : int array * int array =
  let rpo_index = Array.make n (-1) in
  List.iteri (fun k i -> rpo_index.(i) <- k) rpo;
  let idom = Array.make n (-1) in
  idom.(entry) <- entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_index.(!a) > rpo_index.(!b) do
        a := idom.(!a)
      done;
      while rpo_index.(!b) > rpo_index.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun i ->
        if i <> entry then begin
          let processed =
            List.filter (fun p -> rpo_index.(p) >= 0 && idom.(p) >= 0) (preds i)
          in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(i) <> new_idom then begin
                idom.(i) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  (idom, rpo_index)

let idom_dominates (idom : int array) (a : int) (b : int) : bool =
  idom.(b) >= 0
  &&
  let rec up x = x = a || (idom.(x) <> x && up idom.(x)) in
  up b

let compute (g : Cfg.t) : t =
  let n = Cfg.n_nodes g in
  let rpo = Cfg.reverse_postorder g in
  let idom, rpo_index =
    immediate ~n ~entry:g.entry ~preds:(fun i -> (Cfg.node g i).preds) ~rpo
  in
  (* dominance frontiers *)
  let frontiers = Array.make n [] in
  List.iter
    (fun i ->
      let preds =
        List.filter (fun p -> rpo_index.(p) >= 0) (Cfg.node g i).preds
      in
      if List.length preds >= 2 then
        List.iter
          (fun p ->
            let runner = ref p in
            while !runner <> idom.(i) do
              if not (List.mem i frontiers.(!runner)) then
                frontiers.(!runner) <- i :: frontiers.(!runner);
              runner := idom.(!runner)
            done)
          preds)
    rpo;
  let children = Array.make n [] in
  List.iter
    (fun i ->
      if i <> g.entry && idom.(i) >= 0 then
        children.(idom.(i)) <- i :: children.(idom.(i)))
    rpo;
  { idom; rpo_index; frontiers; children }

(** Does [a] dominate [b]?  (Reflexive.) *)
let dominates (d : t) (a : int) (b : int) : bool = idom_dominates d.idom a b
