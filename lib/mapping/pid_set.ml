(** Closed-form processor sets over a grid.

    The hot paths of the simulator need "which processors execute this
    statement instance" as a set supporting O(1) counting and O(rank)
    membership, without materializing the cartesian product of grid
    dimensions (at P=1024 that product is the whole machine for every
    replicated statement).  A set is either a rectangle — per grid
    dimension a fixed coordinate or the full axis — or an explicit
    sorted pid list for the rare irregular unions. *)

type dim = D_one of int | D_all

type t =
  | Rect of { grid : Grid.t; dims : dim array }
  | Explicit of { grid : Grid.t; pids : int list }  (** sorted ascending *)

let grid = function Rect r -> r.grid | Explicit e -> e.grid

(** The whole machine. *)
let all (g : Grid.t) : t =
  Rect { grid = g; dims = Array.make (Grid.rank g) D_all }

let of_dims (g : Grid.t) (dims : dim array) : t = Rect { grid = g; dims }

(** Explicit set from an arbitrary pid list (deduplicated, sorted). *)
let of_list (g : Grid.t) (pids : int list) : t =
  Explicit { grid = g; pids = List.sort_uniq compare pids }

let count = function
  | Rect { grid; dims } ->
      let rec go k acc =
        if k < 0 then acc
        else
          go (k - 1)
            (match dims.(k) with
            | D_one _ -> acc
            | D_all -> acc * Grid.extent grid k)
      in
      go (Array.length dims - 1) 1
  | Explicit { pids; _ } -> List.length pids

let is_empty = function
  | Rect _ -> false (* a rectangle always has >= 1 element *)
  | Explicit { pids; _ } -> pids = []

let is_all = function
  | Rect { dims; _ } -> Array.for_all (function D_all -> true | D_one _ -> false) dims
  | Explicit { grid; pids } -> List.length pids = Grid.size grid

(* Range check of a fixed coordinate, as {!Grid.linearize} makes it. *)
let check_coord (grid : Grid.t) (g : int) (c : int) : unit =
  assert (c >= 0 && c < Grid.extent grid g)

(** Smallest linear pid in the set, i.e. the head of the legacy
    lexicographic expansion ([D_all] contributes coordinate 0). *)
let first = function
  | Rect { grid; dims } ->
      assert (Array.length dims = Grid.rank grid);
      let id = ref 0 in
      for g = 0 to Array.length dims - 1 do
        let c = match dims.(g) with D_one c -> c | D_all -> 0 in
        check_coord grid g c;
        id := (!id * Grid.extent grid g) + c
      done;
      Some !id
  | Explicit { pids = p :: _; _ } -> Some p
  | Explicit { pids = []; _ } -> None

(** O(rank) membership for rectangles. *)
let mem (s : t) (pid : int) : bool =
  match s with
  | Rect { grid; dims } ->
      let rem = ref pid and ok = ref true in
      for g = Array.length dims - 1 downto 0 do
        let e = Grid.extent grid g in
        (match dims.(g) with
        | D_all -> ()
        | D_one c -> if !rem mod e <> c then ok := false);
        rem := !rem / e
      done;
      !ok
  | Explicit { pids; _ } -> List.mem pid pids

(* The pids of [dims.(g..)] under the prefix id [id], ascending: a
   fixed coordinate extends the id, a whole axis loops over it.  Every
   argument is passed, so a walk allocates nothing. *)
let rec iter_dims f grid dims g id =
  if g = Array.length dims then f id
  else
    let e = Grid.extent grid g in
    match dims.(g) with
    | D_one c ->
        check_coord grid g c;
        iter_dims f grid dims (g + 1) ((id * e) + c)
    | D_all ->
        for c = 0 to e - 1 do
          iter_dims f grid dims (g + 1) ((id * e) + c)
        done

(** Iterate pids in ascending linear-id order (matches the legacy
    cartesian expansion order), without allocating. *)
let iter (f : int -> unit) (s : t) : unit =
  match s with
  | Rect { grid; dims } ->
      assert (Array.length dims = Grid.rank grid);
      iter_dims f grid dims 0 0
  | Explicit { pids; _ } -> List.iter f pids

let to_list (s : t) : int list =
  match s with
  | Explicit { pids; _ } -> pids
  | Rect _ ->
      let acc = ref [] in
      iter (fun p -> acc := p :: !acc) s;
      List.rev !acc

(** Set union.  Rectangles are kept closed-form when one side absorbs
    the other; otherwise the result is an explicit sorted list. *)
let union (a : t) (b : t) : t =
  if is_all a then a
  else if is_all b then b
  else if a = b then a
  else
    let rec merge xs ys =
      match (xs, ys) with
      | [], l | l, [] -> l
      | x :: xs', y :: ys' ->
          if x < y then x :: merge xs' ys
          else if y < x then y :: merge xs ys'
          else x :: merge xs' ys'
    in
    Explicit { grid = grid a; pids = merge (to_list a) (to_list b) }

let pp ppf (s : t) =
  match s with
  | Rect { dims; _ } ->
      Fmt.pf ppf "[%a]"
        Fmt.(
          array ~sep:(any ", ") (fun ppf -> function
            | D_all -> Fmt.string ppf "*"
            | D_one c -> Fmt.int ppf c))
        dims
  | Explicit { pids; _ } ->
      Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") int) pids
