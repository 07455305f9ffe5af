(* The serve subsystem: protocol parsing, the JSON codec, the domain
   pool, cache-key hygiene, and the headline determinism guarantee —
   a stress workload over 7 benchmarks × 3 option sets answered
   bit-identically by a sequential run and an 8-domain run, and the
   example workload answered alike at 1 and 4 domains by a cache small
   enough to evict on nearly every insert. *)

open Hpf_lang
open Phpf_serve
module Decisions = Phpf_core.Decisions

let check = Alcotest.check
let fail = Alcotest.fail

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* The benchmark corpus (7 programs, rendered to source text)          *)
(* ------------------------------------------------------------------ *)

let programs : (string * string) list =
  List.map
    (fun (name, p) -> (name, Pp.program_to_string p))
    [
      ("fig1", Hpf_benchmarks.Fig_examples.fig1 ~n:24 ~p:4 ());
      ("fig2", Hpf_benchmarks.Fig_examples.fig2 ~n:24 ~np:4 ());
      ("fig7", Hpf_benchmarks.Fig_examples.fig7 ~n:24 ~p:4 ());
      ("tomcatv", Hpf_benchmarks.Tomcatv.program ~n:18 ~niter:2 ~p:4);
      ("dgefa", Hpf_benchmarks.Dgefa.program ~n:16 ~p:4);
      ("appsp1d", Hpf_benchmarks.Appsp.program_1d ~n:12 ~niter:2 ~p:4);
      ( "appsp2d",
        Hpf_benchmarks.Appsp.program_2d ~n:12 ~niter:2 ~p1:2 ~p2:2 );
    ]

(* ------------------------------------------------------------------ *)
(* Jsonx                                                               *)
(* ------------------------------------------------------------------ *)

let test_jsonx_roundtrip () =
  let v =
    Jsonx.Obj
      [
        ("s", Jsonx.Str "line\n\"quoted\"\ttab\\slash");
        ("i", Jsonx.Int (-42));
        ("f", Jsonx.Float 1.5);
        ("whole", Jsonx.Float 3.0);
        ("b", Jsonx.Bool true);
        ("n", Jsonx.Null);
        ("l", Jsonx.List [ Jsonx.Int 1; Jsonx.Str "x"; Jsonx.Obj [] ]);
      ]
  in
  let s = Jsonx.to_string v in
  check Alcotest.string "to_string is byte-stable"
    "{\"s\":\"line\\n\\\"quoted\\\"\\ttab\\\\slash\",\"i\":-42,\"f\":1.5,\
     \"whole\":3.0,\"b\":true,\"n\":null,\"l\":[1,\"x\",{}]}"
    s;
  (match Jsonx.of_string_result s with
  | Error m -> fail ("roundtrip parse failed: " ^ m)
  | Ok v' ->
      check Alcotest.string "print . parse . print is stable" s
        (Jsonx.to_string v'));
  check Alcotest.bool "of_string (pretty v) = v" true
    (Jsonx.of_string (Jsonx.pretty v) = v);
  check Alcotest.string "whole floats keep a decimal point" "3.0"
    (Jsonx.float_to_string 3.0);
  (match Jsonx.of_string_result "{\"a\":1} trailing" with
  | Ok _ -> fail "trailing content must be rejected"
  | Error _ -> ());
  match Jsonx.of_string_result "{\"a\":" with
  | Ok _ -> fail "truncated input must be rejected"
  | Error _ -> ()

(* Every escape the parser knows decodes, alone, at either end of a
   string and back to back; a string holding every byte survives print
   then parse; and a string cut short or badly escaped is rejected. *)
let test_jsonx_escapes () =
  let decoded =
    Jsonx.of_string
      {|"a\"b\\c\/d\be\ff\ng\rh\ti\u0041\u00e9\u20ac\u0000j"|}
  in
  check
    Alcotest.(option string)
    "every escape decodes"
    (Some "a\"b\\c/d\be\012f\ng\rh\ti\x41\xc3\xa9\xe2\x82\xac\x00j")
    (Jsonx.to_str_opt decoded);
  check
    Alcotest.(option string)
    "escapes at both ends and back to back" (Some "\n\t\\\"")
    (Jsonx.to_str_opt (Jsonx.of_string {|"\n\t\\\""|}));
  check Alcotest.(option string) "empty string" (Some "")
    (Jsonx.to_str_opt (Jsonx.of_string {|""|}));
  let every_byte = String.init 256 Char.chr in
  check
    Alcotest.(option string)
    "every byte round-trips" (Some every_byte)
    (Jsonx.to_str_opt
       (Jsonx.of_string (Jsonx.to_string (Jsonx.Str every_byte))));
  List.iter
    (fun bad ->
      match Jsonx.of_string_result bad with
      | Ok _ -> fail ("accepted " ^ bad)
      | Error _ -> ())
    [ {|"abc|}; {|"abc\|}; {|"a\xb"|}; {|"\u12"|}; {|"\u12zz"|} ]

(* A value shaped like a bench record: nested objects, arrays of
   scalars (one line), arrays of objects (one element per line), empty
   containers and null. *)
let test_jsonx_pretty () =
  let point p t =
    Jsonx.Obj
      [
        ("nprocs", Jsonx.Int p);
        ("simulated_time", Jsonx.Float t);
        ("spmd_measured", Jsonx.Bool (p <= 8));
      ]
  in
  let v =
    Jsonx.Obj
      [
        ("schema", Jsonx.Str "phpf-bench/7");
        ("procs", Jsonx.List [ Jsonx.Int 8; Jsonx.Int 64 ]);
        ( "benchmarks",
          Jsonx.List
            [
              Jsonx.Obj
                [
                  ("name", Jsonx.Str "fig1");
                  ("opt_census", Jsonx.List []);
                  ("sweep", Jsonx.List [ point 8 0.000319; point 64 2.5 ]);
                ];
            ] );
        ("recovery", Jsonx.Obj []);
        ("serve", Jsonx.Null);
      ]
  in
  let text = Jsonx.pretty v in
  check Alcotest.bool "of_string (pretty v) = v" true
    (Jsonx.of_string text = v);
  check Alcotest.string "one field per line, scalar arrays inline"
    "{\n\
    \  \"schema\": \"phpf-bench/7\",\n\
    \  \"procs\": [8, 64],\n\
    \  \"benchmarks\": [\n\
    \    {\n\
    \      \"name\": \"fig1\",\n\
    \      \"opt_census\": [],\n\
    \      \"sweep\": [\n\
    \        {\n\
    \          \"nprocs\": 8,\n\
    \          \"simulated_time\": 0.000319,\n\
    \          \"spmd_measured\": true\n\
    \        },\n\
    \        {\n\
    \          \"nprocs\": 64,\n\
    \          \"simulated_time\": 2.5,\n\
    \          \"spmd_measured\": false\n\
    \        }\n\
    \      ]\n\
    \    }\n\
    \  ],\n\
    \  \"recovery\": {},\n\
    \  \"serve\": null\n\
     }"
    text

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let parse_req line =
  Proto.request_of_line ~default_id:1 line

let test_proto_requests () =
  (match parse_req "{\"action\":\"compile\",\"program\":\"x\"}" with
  | Ok r ->
      check Alcotest.int "default id" 1 r.Proto.id;
      check Alcotest.bool "default options" true
        (r.Proto.options = Decisions.default_options)
  | Error e -> fail e.Proto.reason);
  (match
     parse_req
       "{\"id\":9,\"action\":\"simulate\",\"program\":\"x\",\"grid\":[2,2],\
        \"options\":{\"privatize_arrays\":false}}"
   with
  | Ok r ->
      check Alcotest.int "explicit id" 9 r.Proto.id;
      check
        (Alcotest.option (Alcotest.list Alcotest.int))
        "grid" (Some [ 2; 2 ]) r.Proto.grid;
      check Alcotest.bool "option applied" false
        r.Proto.options.Decisions.privatize_arrays
  | Error e -> fail e.Proto.reason);
  let reject line =
    match parse_req line with
    | Ok _ -> fail ("accepted malformed request: " ^ line)
    | Error e -> e.Proto.reason
  in
  ignore (reject "nonsense");
  ignore (reject "[1,2]");
  ignore (reject "{\"program\":\"x\"}");
  ignore (reject "{\"action\":\"explode\",\"program\":\"x\"}");
  ignore (reject "{\"action\":\"compile\"}");
  ignore (reject "{\"action\":\"compile\",\"program\":\"x\",\"grid\":[0]}");
  ignore
    (reject
       "{\"action\":\"compile\",\"program\":\"x\",\
        \"options\":{\"privatize_arays\":true}}")

(* The option codec is a fold over [Decisions.knobs]: every knob
   round-trips under both values, and an ill-typed value is rejected
   naming its key. *)
let test_proto_knobs () =
  let decode j = Proto.options_of_json (Jsonx.of_string j) in
  List.iter
    (fun (k : Decisions.knob) ->
      List.iter
        (fun b ->
          let o = k.Decisions.set Decisions.default_options b in
          check Alcotest.bool
            (Fmt.str "%s=%b round-trips" k.Decisions.key b)
            true
            (Proto.options_of_json (Proto.options_to_json o) = Ok o))
        [ true; false ];
      match decode (Fmt.str "{%S: 1}" k.Decisions.key) with
      | Ok _ -> fail (k.Decisions.key ^ ": a non-bool value was accepted")
      | Error m ->
          check Alcotest.bool
            (Fmt.str "the error names %s" k.Decisions.key)
            true (contains m k.Decisions.key))
    Decisions.knobs;
  match decode "{\"optimise\": true}" with
  | Ok _ -> fail "unknown option accepted"
  | Error m ->
      check Alcotest.bool "unknown option named" true
        (contains m "unknown option \"optimise\"")

(* opt_passes goes through [Decisions.normalize_opt_passes], as
   [phpfc --opt] does: equivalent selections decode to one value and so
   share one cache key, and an unknown pass is rejected with the list of
   registered ones. *)
let test_proto_opt_passes () =
  let decode sel =
    Proto.options_of_json
      (Jsonx.of_string (Fmt.str "{\"opt_passes\": %s}" sel))
  in
  let key sel =
    match decode sel with
    | Ok options ->
        Engine.cache_key
          { Proto.id = 1; action = Proto.Compile; program = "x"; grid = None;
            options }
    | Error m -> fail (sel ^ ": " ^ m)
  in
  let same a b =
    check Alcotest.bool (Fmt.str "%s decodes like %s" a b) true
      (decode a = decode b);
    check Alcotest.string (Fmt.str "%s keys like %s" a b) (key a) (key b)
  in
  same "[\"sir-opt.rte\"]" "[\"rte\"]";
  same "[\"rte\", \"rte\"]" "[\"rte\"]";
  same "[\"rte\", \"dte\"]" "[\"dte\", \"rte\"]";
  check Alcotest.bool "canonical order" true
    (decode "[\"rte\", \"dte\"]"
    = Ok { Decisions.default_options with opt_passes = Some [ "dte"; "rte" ] });
  check Alcotest.bool "a selection is not the full suite" true
    (key "[\"rte\"]" <> key "null");
  match decode "[\"bogus\"]" with
  | Ok _ -> fail "unknown pass accepted"
  | Error m ->
      check Alcotest.bool "names the unknown pass" true (contains m "bogus");
      check Alcotest.bool "lists the registered passes" true
        (contains m
           (String.concat ", "
              (List.map (( ^ ) "sir-opt.") Phpf_ir.Sir_opt.pass_names)))

(* Different options never share a cache entry: the signature is
   injective over every knob setting and several pass selections. *)
let test_options_signature_injective () =
  let selections =
    [ None; Some []; Some [ "rte" ]; Some Phpf_ir.Sir_opt.pass_names ]
  in
  let settings =
    List.fold_left
      (fun acc (k : Decisions.knob) ->
        List.concat_map
          (fun o -> [ k.Decisions.set o false; k.Decisions.set o true ])
          acc)
      [ Decisions.default_options ] Decisions.knobs
  in
  let all =
    List.concat_map
      (fun o ->
        List.map (fun opt_passes -> { o with Decisions.opt_passes }) selections)
      settings
  in
  let sigs =
    List.sort_uniq compare (List.map Decisions.options_signature all)
  in
  check Alcotest.int "one signature per record"
    (4 * (1 lsl List.length Decisions.knobs))
    (List.length sigs)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map_ordered () =
  let jobs = List.init 100 (fun i () -> i * i) in
  check (Alcotest.list Alcotest.int) "results in input order"
    (List.init 100 (fun i -> i * i))
    (Pool.map_ordered ~domains:4 jobs);
  check (Alcotest.list Alcotest.int) "domains:1 degenerates to map"
    (List.init 10 (fun i -> i))
    (Pool.map_ordered ~domains:1 (List.init 10 (fun i () -> i)))

(* ------------------------------------------------------------------ *)
(* Cache hygiene                                                       *)
(* ------------------------------------------------------------------ *)

let req ?(id = 1) ?(action = Proto.Compile) ?grid
    ?(options = Decisions.default_options) program =
  { Proto.id; action; program; grid; options }

let body_of (e : Engine.t) r =
  let o = Engine.handle e r in
  o.Engine.body

let test_cache_keys_separate () =
  let src = List.assoc "fig1" programs in
  let base = req src in
  let variants =
    [
      req ~action:Proto.Lint src;
      req ~action:Proto.Simulate src;
      req ~grid:[ 2 ] src;
      req
        ~options:
          { Decisions.default_options with Decisions.privatize_arrays = false }
        src;
      req (src ^ "\n");
    ]
  in
  List.iter
    (fun v ->
      check Alcotest.bool
        "every request component separates the cache key" true
        (Engine.cache_key base <> Engine.cache_key v))
    variants;
  check Alcotest.string "the id does not poison the key"
    (Engine.cache_key base)
    (Engine.cache_key { base with Proto.id = 999 })

(* A cached answer must never leak to a request it does not match: warm
   the cache with one (program, options, grid, action) point, then ask
   for neighbours along each axis and check the answers differ where
   the compile differs. *)
let test_cache_poisoning_guard () =
  let e = Engine.create () in
  let src = List.assoc "fig2" programs in
  let warmed = body_of e (req src) in
  check Alcotest.string "identical request replays the cached body"
    warmed
    (body_of e (req src));
  let no_arrays =
    body_of e
      (req
         ~options:
           {
             Decisions.default_options with
             Decisions.privatize_arrays = false;
             partial_privatization = false;
           }
         src)
  in
  check Alcotest.bool "different options, different answer" true
    (warmed <> no_arrays);
  let wider = body_of e (req ~grid:[ 8 ] src) in
  check Alcotest.bool "different grid, different answer" true
    (warmed <> wider);
  let lint = body_of e (req ~action:Proto.Lint src) in
  check Alcotest.bool "different action, different answer" true
    (warmed <> lint);
  (* the warmed entry must still be intact after the neighbours *)
  let o = Engine.handle e (req src) in
  check Alcotest.bool "original entry survives as a cache hit" true
    o.Engine.cached;
  check Alcotest.string "and still carries the original body" warmed
    o.Engine.body

(* A simulate request prices the compiler's recorded lowering — the
   program the CLI's simulate prices, sir-opt rewrites included. *)
let test_simulate_prices_compiled_sir () =
  let src = List.assoc "tomcatv" programs in
  let e = Engine.create () in
  let body = Jsonx.of_string (body_of e (req ~action:Proto.Simulate src)) in
  let c = Phpf_core.Compiler.compile_exn (Parser.parse_string src) in
  let r, _ =
    Hpf_spmd.Trace_sim.run
      ~init:(Hpf_spmd.Init.init c.Phpf_core.Compiler.prog)
      ~sir:(Phpf_core.Compiler.sir_exn c) c
  in
  check (Alcotest.option Alcotest.int) "comm_messages"
    (Some r.Hpf_spmd.Trace_sim.comm_messages)
    (Option.bind (Jsonx.member "comm_messages" body) Jsonx.to_int_opt);
  check (Alcotest.option Alcotest.string) "comm_time"
    (Some (Jsonx.float_to_string r.Hpf_spmd.Trace_sim.comm_time))
    (Option.map Jsonx.float_to_string
       (Option.bind (Jsonx.member "comm_time" body) Jsonx.to_float_opt))

(* ------------------------------------------------------------------ *)
(* Batch driver semantics                                              *)
(* ------------------------------------------------------------------ *)

let test_batch_exit_codes () =
  let good =
    Proto.request_to_line (req (List.assoc "fig1" programs))
  in
  let failing =
    Proto.request_to_line (req "program broken\nthis is not a program\n")
  in
  let malformed = "{\"action\":\"compile\"}" in
  let r = Serve.run_batch ~domains:2 [ good; good ] in
  check Alcotest.int "all ok -> exit 0" 0 r.Serve.exit_code;
  check Alcotest.int "every line answered" 2
    (List.length r.Serve.responses);
  let r = Serve.run_batch ~domains:2 [ good; failing ] in
  check Alcotest.int "failed request -> exit 2" 2 r.Serve.exit_code;
  check Alcotest.int "one failure counted" 1 r.Serve.failed;
  let r = Serve.run_batch ~domains:2 [ good; malformed; failing ] in
  check Alcotest.int "malformed dominates -> exit 1" 1 r.Serve.exit_code;
  check Alcotest.int "one reject counted" 1 r.Serve.rejected;
  let line = List.nth r.Serve.responses 1 in
  check Alcotest.bool "reject rendered as E0901" true
    (contains line "E0901")

(* ------------------------------------------------------------------ *)
(* The stress determinism gate                                         *)
(* ------------------------------------------------------------------ *)

(* 7 benchmarks × 3 option sets × 3 actions, several times over: the
   sequential answer stream and the 8-domain answer stream must be
   bit-identical (compared via the replay digest over result bodies,
   which excludes timing metadata by construction). *)
let test_stress_8_domains_bit_identical () =
  let requests = Serve.workload ~programs ~n:200 in
  let seq = Serve.replay ~domains:1 requests in
  let par = Serve.replay ~domains:8 requests in
  check Alcotest.int "sequential run answers everything" 200
    seq.Serve.requests;
  check Alcotest.int "no errors sequentially" 0 seq.Serve.errors;
  check Alcotest.int "no errors on 8 domains" 0 par.Serve.errors;
  check Alcotest.string "8-domain digest == sequential digest"
    seq.Serve.digest par.Serve.digest;
  (* the workload has 63 distinct (program, options, action) points, so
     the cache must collapse the rest *)
  check Alcotest.int "sequential computes each distinct point once" 63
    seq.Serve.computed;
  check Alcotest.bool "cache hit rate reflects the replay" true
    (seq.Serve.cache_hit_rate > 0.6);
  check Alcotest.bool "aggregate stats are recorded" true
    (Phpf_driver.Stats.get seq.Serve.stats "program.stmts" > 0);
  (* a key's counters count once, at its first request, whichever
     domain computed it *)
  check
    Alcotest.(list (pair string int))
    "aggregate stats equal at 1 and 8 domains"
    (Phpf_driver.Stats.to_sorted_list seq.Serve.stats)
    (Phpf_driver.Stats.to_sorted_list par.Serve.stats)

let test_batch_output_domain_independent () =
  let lines =
    List.map Proto.request_to_line (Serve.workload ~programs ~n:63)
  in
  let a = Serve.run_batch ~domains:1 lines in
  let b = Serve.run_batch ~domains:8 lines in
  check (Alcotest.list Alcotest.string)
    "batch responses bit-identical at 1 and 8 domains" a.Serve.responses
    b.Serve.responses

(* ------------------------------------------------------------------ *)
(* Eviction under concurrency                                          *)
(* ------------------------------------------------------------------ *)

(* The example workload's 90 keys, each request sent twice in a row, on
   a 16-entry cache: one entry per shard, so nearly every insert evicts.
   At one domain the repeat always hits; at four the domains interleave
   and evict each other's entries.  Eviction must never change an
   answer, and the cache never holds more than its capacity.  Which
   requests compute depends on the interleaving, so the computed count
   is not compared across domain counts; the merged stats are, since
   they are summed over the request stream. *)
let test_eviction_under_concurrency () =
  let requests =
    List.concat_map
      (fun r -> [ r; r ])
      (Serve.workload
         ~programs:
           (List.map
              (fun (name, p) -> (name, Pp.program_to_string p))
              (Prog_gen.examples ()))
         ~n:90)
  in
  let run domains =
    Serve.replay ~engine:(Engine.create ~cache_capacity:16 ()) ~domains
      requests
  in
  let seq = run 1 and par = run 4 in
  check Alcotest.int "sequential run answers everything" 180
    seq.Serve.requests;
  check Alcotest.int "no errors sequentially" 0 seq.Serve.errors;
  check Alcotest.int "no errors on 4 domains" 0 par.Serve.errors;
  check Alcotest.string "4-domain digest == sequential digest"
    seq.Serve.digest par.Serve.digest;
  check
    Alcotest.(list (pair string int))
    "merged stats equal at 1 and 4 domains"
    (Phpf_driver.Stats.to_sorted_list seq.Serve.stats)
    (Phpf_driver.Stats.to_sorted_list par.Serve.stats);
  List.iter
    (fun (s : Serve.replay_summary) ->
      let entries = s.Serve.cache.Phpf_driver.Memo.entries in
      if entries > 16 then
        fail
          (Printf.sprintf "%d entries in a 16-entry cache at %d domains"
             entries s.Serve.domains))
    [ seq; par ];
  check Alcotest.int "at one domain every repeat hits" 90
    seq.Serve.cache.Phpf_driver.Memo.hits

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

let test_daemon_roundtrip () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "phpfc-serve-test-%d.sock" (Unix.getpid ()))
  in
  let stop_flag = Atomic.make false in
  let ready_lock = Mutex.create () in
  let ready_cond = Condition.create () in
  let ready = ref false in
  let server =
    Thread.create
      (fun () ->
        Serve.daemon
          ~stop:(fun () -> Atomic.get stop_flag)
          ~ready:(fun () ->
            Mutex.lock ready_lock;
            ready := true;
            Condition.signal ready_cond;
            Mutex.unlock ready_lock)
          ~socket ~domains:2 ())
      ()
  in
  Mutex.lock ready_lock;
  while not !ready do
    Condition.wait ready_cond ready_lock
  done;
  Mutex.unlock ready_lock;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  let src = List.assoc "fig1" programs in
  List.iter
    (fun i ->
      output_string oc
        (Proto.request_to_line (req ~id:i src) ^ "\n"))
    [ 1; 2; 3 ];
  output_string oc "{\"id\":4,\"action\":\"nope\",\"program\":\"x\"}\n";
  flush oc;
  let lines = List.init 4 (fun _ -> input_line ic) in
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let ids =
    List.map
      (fun l ->
        match Jsonx.member "id" (Jsonx.of_string l) with
        | Some (Jsonx.Int i) -> i
        | _ -> fail ("response without id: " ^ l))
      lines
  in
  check (Alcotest.list Alcotest.int) "every request answered exactly once"
    [ 1; 2; 3; 4 ]
    (List.sort compare ids);
  (* the E0901 rejection came back for the malformed request *)
  let rejected =
    List.find
      (fun l ->
        match Jsonx.member "id" (Jsonx.of_string l) with
        | Some (Jsonx.Int 4) -> true
        | _ -> false)
      lines
  in
  (match Jsonx.member "error" (Jsonx.of_string rejected) with
  | Some err ->
      check (Alcotest.option Alcotest.string) "code E0901"
        (Some "E0901")
        (Option.bind (Jsonx.member "code" err) Jsonx.to_str_opt)
  | None -> fail "malformed request not rejected");
  (* well-formed responses carry the deterministic result body *)
  let first =
    List.find
      (fun l ->
        match Jsonx.member "id" (Jsonx.of_string l) with
        | Some (Jsonx.Int 1) -> true
        | _ -> false)
      lines
  in
  (match Jsonx.member "result" (Jsonx.of_string first) with
  | Some body ->
      check (Alcotest.option Alcotest.string) "compiled the program"
        (Some "fig1")
        (Option.bind (Jsonx.member "program" body) Jsonx.to_str_opt)
  | None -> fail "response without result");
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Atomic.set stop_flag true;
  Thread.join server;
  check Alcotest.bool "socket removed on shutdown" false
    (Sys.file_exists socket)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          Alcotest.test_case "jsonx roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "jsonx escapes" `Quick test_jsonx_escapes;
          Alcotest.test_case "jsonx pretty" `Quick test_jsonx_pretty;
          Alcotest.test_case "request parsing" `Quick test_proto_requests;
          Alcotest.test_case "every knob round-trips" `Quick
            test_proto_knobs;
          Alcotest.test_case "opt_passes normalized" `Quick
            test_proto_opt_passes;
          Alcotest.test_case "options signature injective" `Quick
            test_options_signature_injective;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map_ordered" `Quick test_pool_map_ordered;
        ] );
      ( "cache",
        [
          Alcotest.test_case "key separation" `Quick
            test_cache_keys_separate;
          Alcotest.test_case "poisoning guard" `Quick
            test_cache_poisoning_guard;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "prices the compiled Sir" `Quick
            test_simulate_prices_compiled_sir;
        ] );
      ( "batch",
        [
          Alcotest.test_case "exit codes" `Quick test_batch_exit_codes;
          Alcotest.test_case "output independent of domain count" `Slow
            test_batch_output_domain_independent;
        ] );
      ( "stress",
        [
          Alcotest.test_case "8 domains bit-identical to sequential" `Slow
            test_stress_8_domains_bit_identical;
          Alcotest.test_case "eviction at 1 and 4 domains" `Slow
            test_eviction_under_concurrency;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "socket roundtrip" `Quick test_daemon_roundtrip;
        ] );
    ]
