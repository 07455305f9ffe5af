(** Ownership of references: who holds a given array element or scalar.

    Two views are provided:

    - a {e concrete} view ({!owner_of_element}) used by the SPMD runtime
      and the timing simulator: given actual index values, which grid
      coordinates own the element;
    - a {e symbolic} view ({!owner_spec}) used at compile time by the
      communication analysis: per grid dimension, the owner coordinate as
      a function (affine form over loop indices pushed through the
      distribution format). *)

open Hpf_lang
open Hpf_analysis

(** Per-grid-dimension symbolic owner. *)
type owner_dim =
  | O_all  (** replicated: available at every coordinate *)
  | O_fixed of int
  | O_affine of {
      fmt : Dist.format;
      nprocs : int;
      pos : Affine.t;  (** 0-based position; coord = owner_coord fmt pos *)
    }
  | O_unknown  (** non-affine subscript: owner varies unpredictably *)

type spec = owner_dim array  (** one entry per grid dimension *)

let pp_owner_dim ppf = function
  | O_all -> Fmt.string ppf "*"
  | O_fixed c -> Fmt.pf ppf "@%d" c
  | O_affine { pos; fmt; _ } -> Fmt.pf ppf "%a(%a)" Dist.pp fmt Affine.pp pos
  | O_unknown -> Fmt.string ppf "?"

let pp_spec ppf (s : spec) =
  Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any ", ") pp_owner_dim) s

(** Symbolic owner of reference [base(subs)] (or scalar [base] with
    [subs = []]) in the context of enclosing loop [indices]. *)
let owner_spec (env : Layout.env) ~(indices : string list) (base : string)
    (subs : Ast.expr list) : spec =
  let l = Layout.layout_of env base in
  Array.map
    (function
      | Layout.Repl -> O_all
      | Layout.Fixed c -> O_fixed c
      | Layout.Mapped m -> (
          match List.nth_opt subs m.array_dim with
          | None -> O_unknown
          | Some sub -> (
              match Affine.of_subscript env.prog ~indices sub with
              | None -> O_unknown
              | Some a ->
                  let pos =
                    Affine.add (Affine.scale m.stride a)
                      (Affine.constant (m.offset - m.dim_lo))
                  in
                  if Affine.is_constant pos then
                    O_fixed
                      (Dist.owner_coord m.fmt ~nprocs:m.nprocs pos.Affine.const)
                  else O_affine { fmt = m.fmt; nprocs = m.nprocs; pos })))
    l.bindings

(** A spec that is replicated in every grid dimension — the "dummy
    replicated reference" of the paper (data needed by all processors). *)
let all_procs (env : Layout.env) : spec =
  Array.make (Grid.rank env.grid) O_all

(** Is the spec available on every processor? *)
let is_replicated_spec (s : spec) =
  Array.for_all (function O_all -> true | _ -> false) s

(** Is the data partitioned (owner varies with loop indices in some
    dimension)? *)
let is_partitioned_spec (s : spec) =
  Array.exists
    (function O_affine _ | O_unknown -> true | O_all | O_fixed _ -> false)
    s

(* ------------------------------------------------------------------ *)
(* Per-dimension relation between producer and consumer owners          *)
(* ------------------------------------------------------------------ *)

(** How the owner of a produced value relates to the owner of its
    consumer, along one grid dimension. *)
type dim_relation =
  | Same  (** provably the same coordinate for all iterations *)
  | Local  (** producer replicated along this dim: always available *)
  | Shift of int
      (** positions differ by a constant: nearest-neighbour style
          communication after vectorization *)
  | To_all  (** consumer needs it at all coordinates: broadcast *)
  | Irregular  (** anything else: general (gather/transpose-like) *)

(** Relation along one dimension from producer [p] to consumer [c]. *)
let rec relate_dim (p : owner_dim) (c : owner_dim) : dim_relation =
  match (p, c) with
  | O_all, _ -> Local
  | O_affine { nprocs = 1; _ }, _ -> Local
      (* a single processor along this dimension owns everything *)
  | _, O_all -> To_all
  | p, O_affine { nprocs = 1; _ } ->
      (* degenerate one-processor dimension: the consumer always lives at
         coordinate 0, so compare against that instead of giving up *)
      relate_dim p (O_fixed 0)
  | O_fixed a, O_fixed b -> if a = b then Same else Shift (b - a)
  | O_affine pa, O_affine ca ->
      if pa.fmt = ca.fmt && pa.nprocs = ca.nprocs then
        let d = Affine.sub ca.pos pa.pos in
        if Affine.is_constant d then
          if d.Affine.const = 0 then Same
          else
            (* constant position difference: for BLOCK this is a shift of
               at most |d|/bsize+1 coords; we report the position delta *)
            Shift d.Affine.const
        else Irregular
      else Irregular
  | O_fixed _, O_affine _ | O_affine _, O_fixed _ -> Irregular
  | O_unknown, _ | _, O_unknown -> Irregular

(** Relations across all grid dimensions. *)
let relate (p : spec) (c : spec) : dim_relation array =
  Array.init (Array.length p) (fun g -> relate_dim p.(g) c.(g))

(** No communication needed: along every dimension the producer's value is
    already where the consumer runs. *)
let no_comm (rels : dim_relation array) : bool =
  Array.for_all (function Same | Local -> true | _ -> false) rels

(* ------------------------------------------------------------------ *)
(* Concrete ownership (runtime / simulator)                             *)
(* ------------------------------------------------------------------ *)

(** Concrete per-dimension coordinate set for one element. *)
type concrete_dim = C_all | C_one of int

(** Owner of the element of [base] at (Fortran) index vector [idx]. *)
let owner_of_element (env : Layout.env) (base : string) (idx : int array) :
    concrete_dim array =
  let l = Layout.layout_of env base in
  Array.map
    (function
      | Layout.Repl -> C_all
      | Layout.Fixed c -> C_one c
      | Layout.Mapped m ->
          let i = idx.(m.array_dim) in
          let pos = (m.stride * i) + m.offset - m.dim_lo in
          C_one (Dist.owner_coord m.fmt ~nprocs:m.nprocs pos))
    l.bindings

(* ------------------------------------------------------------------ *)
(* Closed-form owned index intervals                                    *)
(* ------------------------------------------------------------------ *)

(** Closed-form description of the array indices a coordinate owns along
    one [Layout.Mapped] binding: the position-space span of the
    distribution format, pulled back through the (unit-stride) alignment
    map [pos = istride * i + shift]. *)
type interval = {
  ilo : int;
  ihi : int;  (** index bounds of the array dimension *)
  shift : int;
  istride : int;  (** +1 or -1; [pos = istride * i + shift] *)
  pspan : Dist.span;  (** owned positions, all [>= pspan.start] *)
  pos_min : int;
  pos_max : int;  (** position range reached by [ilo..ihi] *)
}

(** Owned index interval of [coord] along binding [b] over the array
    dimension [bounds].  [None] when no closed form applies — replicated
    or pinned bindings, non-unit alignment strides, or alignments that
    reach negative positions — and the caller falls back to per-element
    {!Dist.owner_coord}. *)
let owned_interval (b : Layout.binding) ~(bounds : Types.bounds)
    ~(coord : int) : interval option =
  match b with
  | Layout.Repl | Layout.Fixed _ -> None
  | Layout.Mapped m ->
      if abs m.stride <> 1 then None
      else begin
        let shift = m.offset - m.dim_lo in
        let p_at i = (m.stride * i) + shift in
        let plo = p_at bounds.Types.lo and phi = p_at bounds.Types.hi in
        let pos_min = min plo phi and pos_max = max plo phi in
        if pos_min < 0 || pos_max < pos_min then None
        else
          let pspan =
            Dist.owner_span m.fmt ~nprocs:m.nprocs ~extent:(pos_max + 1)
              coord
          in
          Some
            {
              ilo = bounds.Types.lo;
              ihi = bounds.Types.hi;
              shift;
              istride = m.stride;
              pspan;
              pos_min;
              pos_max;
            }
      end

(** Number of indices in the interval (closed form). *)
let interval_count (iv : interval) : int =
  Dist.span_count iv.pspan ~extent:(iv.pos_max + 1)
  - Dist.span_count iv.pspan ~extent:iv.pos_min

(** Does the interval contain array index [i]? *)
let interval_mem (iv : interval) (i : int) : bool =
  i >= iv.ilo && i <= iv.ihi
  &&
  let pos = (iv.istride * i) + iv.shift in
  pos >= iv.pspan.Dist.start
  && (pos - iv.pspan.Dist.start) mod iv.pspan.Dist.stride
     < iv.pspan.Dist.block

(** Iterate the owned array indices (ascending in position space). *)
let interval_iter (iv : interval) (f : int -> unit) : unit =
  Dist.span_iter iv.pspan ~extent:(iv.pos_max + 1) (fun pos ->
      if pos >= iv.pos_min then f (iv.istride * (pos - iv.shift)))

(** Does processor [pid] own the element? *)
let owns (env : Layout.env) (base : string) (idx : int array) (pid : int) :
    bool =
  let dims = owner_of_element env base idx in
  let coord = Grid.coords env.grid pid in
  let ok = ref true in
  Array.iteri
    (fun g d ->
      match d with
      | C_all -> ()
      | C_one c -> if coord.(g) <> c then ok := false)
    dims;
  !ok
