(** [phpfc serve]: the batch driver, the Unix-socket daemon and the
    replay harness over one {!Engine} + {!Pool} core.

    Batch output is deterministic by construction — responses in input
    order, no timing fields — so it is bit-identical for any domain
    count.  Exit codes: 0 all succeeded, 1 malformed request (E0901),
    2 a well-formed request failed. *)

(** Render one outcome as a response line; [timing] adds the
    non-deterministic [cached]/[ms] metadata (daemon mode). *)
val response_line : timing:bool -> Engine.outcome -> string

(** Render a malformed-request rejection (E0901). *)
val reject_line : Proto.reject -> string

type batch_result = {
  responses : string list;  (** one per input line, input order *)
  requests : int;
  succeeded : int;
  failed : int;  (** well-formed requests whose evaluation errored *)
  rejected : int;  (** malformed lines (E0901) *)
  exit_code : int;  (** 0 / 1 (rejects) / 2 (failures) *)
}

(** Evaluate request lines on [domains] workers, responses in input
    order.  [engine] shares a cache across calls (default: fresh). *)
val run_batch :
  ?timing:bool ->
  ?engine:Engine.t ->
  domains:int ->
  string list ->
  batch_result

(** All lines of a channel, empty lines skipped. *)
val read_lines : in_channel -> string list

(** The stress workload's option sets: default, no-array-priv,
    no-opt. *)
val workload_option_sets : (string * Phpf_core.Decisions.options) list

val workload_actions : Proto.action list

(** Deterministic [n]-request workload cycling programs × option sets
    × actions ([programs] are (name, source-text) pairs). *)
val workload :
  programs:(string * string) list -> n:int -> Proto.request list

type replay_summary = {
  requests : int;
  domains : int;
  ok : int;
  errors : int;
  p50_ms : float;
  p99_ms : float;
  mean_ms : float;
  wall_s : float;
  throughput_rps : float;
  cache : Phpf_driver.Memo.counters;
  cache_hit_rate : float;
  computed : int;
      (** requests that missed the cache and so ran the compiler *)
  digest : string;
      (** MD5 over concatenated result bodies in request order *)
  stats : Phpf_driver.Stats.t;
      (** pass counters summed over the request stream, each cache key
          counted at its first request: the same at every domain count,
          evictions or not *)
}

(** Run the requests over [domains] workers and summarize (fresh
    engine unless one is supplied). *)
val replay :
  ?engine:Engine.t -> domains:int -> Proto.request list -> replay_summary

val summary_to_json : ?schema:string -> replay_summary -> Jsonx.t

(** Serve on a Unix-domain socket until [stop] returns true (checked
    between accepts; default never).  [ready] fires once listening. *)
val daemon :
  ?stop:(unit -> bool) ->
  ?ready:(unit -> unit) ->
  socket:string ->
  domains:int ->
  unit ->
  unit
