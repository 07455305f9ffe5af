(** Communication descriptors produced by {!Comm_analysis}. *)

open Hpf_analysis

type kind =
  | Shift of int
      (** producer and consumer positions differ by a constant: collective
          nearest-neighbour style exchange after vectorization *)
  | Broadcast  (** value needed by all processors (along some grid dims) *)
  | Reduce  (** combining communication of a recognized reduction *)
  | Point_to_point
      (** value moves to a single (possibly varying) owner *)
  | Gather  (** irregular many-to-one/many: the expensive fallback *)

let pp_kind ppf = function
  | Shift d -> Fmt.pf ppf "shift(%+d)" d
  | Broadcast -> Fmt.string ppf "broadcast"
  | Reduce -> Fmt.string ppf "reduce"
  | Point_to_point -> Fmt.string ppf "ptp"
  | Gather -> Fmt.string ppf "gather"

type t = {
  data : Aref.t;  (** the communicated reference *)
  kind : kind;
  stmt_level : int;  (** nesting level of the statement *)
  placement_level : int;
      (** loop level the communication is placed just inside;
          [0] = hoisted outside all loops.  [placement_level < stmt_level]
          means the messages were vectorized. *)
  elems_per_instance : int;
      (** elements moved each time the communication executes *)
  instances : int;  (** how many times the communication executes *)
  group : int option;
      (** participant count for collectives when narrower than the whole
          machine (e.g. a reduction spanning one grid dimension) *)
  agg_vars : string list;
      (** loop-index variables over which the vectorized message actually
          aggregates elements.  For a [Shift] this {e excludes} the index
          driving the shifted dimension: only the boundary overlap
          crosses processors. *)
  scale : int;
      (** extra per-instance element multiplier (a shift of |δ| positions
          moves |δ| boundary planes) *)
  boundary_fraction : float;
      (** for a [Shift] that could {e not} be vectorized past the loop
          driving the shifted dimension: the fraction of iterations whose
          producer and consumer actually sit on different processors
          (|δ| / block size under BLOCK; 1 under CYCLIC) *)
}

let vectorized (c : t) = c.placement_level < c.stmt_level

let in_innermost_loop (c : t) =
  c.stmt_level > 0 && c.placement_level >= c.stmt_level

let for_ref (cs : t list) (r : Aref.t) =
  List.filter (fun c -> Aref.equal c.data r) cs

let total_elems (c : t) = c.elems_per_instance * c.instances

let pp ppf (c : t) =
  Fmt.pf ppf "%a %a at level %d/%d (%d x %d elems)%s" pp_kind c.kind Aref.pp
    c.data c.placement_level c.stmt_level c.instances c.elems_per_instance
    (if vectorized c then " [vectorized]" else "")

(* ------------------------------------------------------------------ *)
(* Canonical signatures                                                *)
(* ------------------------------------------------------------------ *)

(** Canonical one-line rendering of a descriptor: every field, fixed
    field order, locale-independent formatting.  Two descriptors render
    equal iff they are structurally equal, so the signature is safe to
    hash and to compare across processes. *)
let signature (c : t) : string =
  Fmt.str "%a|%a|sl=%d|pl=%d|e=%d|i=%d|g=%s|agg=%s|sc=%d|bf=%h" pp_kind
    c.kind Aref.pp c.data c.stmt_level c.placement_level
    c.elems_per_instance c.instances
    (match c.group with None -> "-" | Some g -> string_of_int g)
    (String.concat "," c.agg_vars)
    c.scale c.boundary_fraction

(** Content digest of a whole schedule, order-sensitive (schedule order
    is part of the compiler's deterministic output).  Equal digests ⇔
    structurally equal schedules; used by the serve determinism checks
    and the bench replay harness. *)
let schedule_digest (cs : t list) : string =
  Digest.to_hex
    (Digest.string (String.concat "\x00" (List.map signature cs)))

(** Estimated cost of one communication descriptor under a machine
    model. *)
let cost (m : Cost_model.t) ~(nprocs : int) (c : t) : float =
  let nprocs = match c.group with Some g -> g | None -> nprocs in
  let effective_instances =
    float_of_int c.instances *. c.boundary_fraction
  in
  let per_instance =
    match c.kind with
    | Shift _ -> Cost_model.shift m ~elems:c.elems_per_instance
    | Broadcast -> Cost_model.bcast m ~p:nprocs ~elems:c.elems_per_instance
    | Reduce -> Cost_model.reduce m ~p:nprocs ~elems:c.elems_per_instance
    | Point_to_point ->
        Cost_model.ptp_among m ~p:nprocs ~elems:c.elems_per_instance
    | Gather ->
        (* irregular: every processor may talk to every other, and the
           crossing traffic pays the topology's bisection contention *)
        float_of_int (max 1 (nprocs - 1))
        *. Cost_model.ptp_among m ~p:nprocs
             ~elems:(max 1 (c.elems_per_instance / max 1 nprocs))
        *. Cost_model.contention m ~p:nprocs
  in
  effective_instances *. per_instance

let total_cost (m : Cost_model.t) ~(nprocs : int) (cs : t list) : float =
  List.fold_left (fun acc c -> acc +. cost m ~nprocs c) 0.0 cs
