(* Workload [simulate]: one client runs compiled points of the six bench
   kernels through the runtime — SPMD execution with validation, the
   same under a pinned crash (plan-regime failover), and trace
   simulation at large machine sizes.  Compiling is set-up only. *)

open Phpf_core
open Hpf_spmd

type mode = Exec | Failover | Tsim

type point = {
  cls : string;
  mode : mode;
  c : Compiler.compiled;
  init : Memory.t -> unit;
}

let modes = [ (Exec, 4); (Exec, 8); (Failover, 8); (Tsim, 64); (Tsim, 256); (Tsim, 1024) ]

let mode_name = function Exec -> "exec" | Failover -> "failover" | Tsim -> "tsim"

(* Ops per cycle of each point.  The figure kernels' ops take 0.2-5 ms,
   the paper kernels' 40-600 ms: five of each figure op to two of each
   paper op puts p50 among the figure ops (~1.4 ms), p90 on
   tomcatv/exec@4 (~175 ms) and p99 on dgefa/failover@8 (~540 ms);
   README.md records the placement. *)
let weight kernel = if String.starts_with ~prefix:"fig" kernel then 5 else 2

let setup () : point array =
  List.concat_map
    (fun (kname, mk) ->
      List.concat_map
        (fun (mode, p) ->
          let c = Compiler.compile_exn (mk ~p) in
          let pt =
            {
              cls = Printf.sprintf "%s/%s@%d" kname (mode_name mode) p;
              mode;
              c;
              init = Init.init c.Compiler.prog;
            }
          in
          List.init (weight kname) (fun _ -> pt))
        modes)
    Corpus.kernels
  |> Array.of_list

let id_exec = Spans.intern "spmd.exec"
let id_failover = Spans.intern "spmd.failover"
let id_validate = Spans.intern "spmd.validate"
let id_tsim = Spans.intern "spmd.trace_sim"

(* Simulated time of each priced point, from its first run: the
   simulator is deterministic, so a later run that differs fails. *)
let priced : (string, Trace_sim.result) Hashtbl.t = Hashtbl.create 32

let count_msg (st : Spmd_interp.t) =
  let m = Spmd_interp.comm_stats st in
  Runner.count "msg.packets" (float_of_int m.Msg.packets);
  Runner.count "msg.blocks" (float_of_int m.Msg.blocks);
  Runner.count "msg.bytes" (float_of_int m.Msg.bytes)

let count_recovery (st : Spmd_interp.t) =
  let r = Spmd_interp.fault_report st in
  Runner.count "recover.refetches" (float_of_int r.Recover.plan_refetch);
  Runner.count "recover.replays" (float_of_int r.Recover.plan_reexec);
  Runner.count "recover.restores" (float_of_int r.Recover.restores)

let run_point (p : point) ~(root : int) : bool =
  let c = p.c in
  let timed id f =
    if root < 0 then f ()
    else Spans.child (Spans.cursor root) id f
  in
  match p.mode with
  | Exec | Failover ->
      let faults, id =
        if p.mode = Failover then
          (Some (Fault.make ~seed:1 ~oneshots:[ (Fault.Crash, 0) ] []), id_failover)
        else (None, id_exec)
      in
      let st =
        timed id (fun () ->
            Spmd_interp.run ~init:p.init ?faults ?sir:c.Compiler.sir c)
      in
      let ok = timed id_validate (fun () -> Spmd_interp.validate st = []) in
      count_msg st;
      if p.mode = Failover then count_recovery st;
      ok
  | Tsim ->
      let r, _ =
        timed id_tsim (fun () -> Trace_sim.run ~init:p.init ?sir:c.Compiler.sir c)
      in
      Runner.count "spmd.stmt_instances" (float_of_int r.Trace_sim.stmt_instances);
      Runner.count "sim.packets" (float_of_int r.Trace_sim.packets);
      Runner.count "sim.bytes" (float_of_int r.Trace_sim.bytes);
      Runner.count "sim.comm_time_ms" (r.Trace_sim.comm_time *. 1e3);
      (match Hashtbl.find_opt priced p.cls with
      | None ->
          Hashtbl.add priced p.cls r;
          true
      | Some r0 -> r0 = r)

let ops (pts : point array) : Runner.op array =
  Array.map (fun p -> { Runner.cls = p.cls; run = run_point p }) pts

(* Simulated run time (ms) of every priced point. *)
let gen_times () : float array =
  Hashtbl.fold (fun _ r acc -> (r.Trace_sim.time *. 1e3) :: acc) priced []
  |> Array.of_list

(* Milliseconds [Seq_interp.run] takes over one cycle's priced points:
   the interpreting share of trace simulation, the rest is pricing. *)
let seq_interp_ms (pts : point array) : float =
  Array.fold_left
    (fun acc p ->
      if p.mode <> Tsim then acc
      else begin
        let t0 = Spans.now_ns () in
        ignore (Seq_interp.run ~init:p.init p.c.Compiler.prog);
        acc +. Spans.ms_of_ns (Spans.now_ns () - t0)
      end)
    0.0 pts
