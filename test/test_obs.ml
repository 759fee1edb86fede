(* Tests for the observability layer (Wfs_obs): JSON, metrics,
   counterexample export/replay, and the explorer's metric feed. *)

open Wfs_spec
open Wfs_sim
open Wfs_consensus
module Json = Wfs_obs.Json
module Metrics = Wfs_obs.Metrics
module Counterexample = Wfs_obs.Counterexample

let value = Alcotest.testable Value.pp Value.equal

let json =
  Alcotest.testable
    (fun ppf j -> Fmt.string ppf (Json.to_string j))
    (fun a b -> String.equal (Json.to_string a) (Json.to_string b))

(* --- JSON --- *)

let test_json_round_trip () =
  let j =
    Json.obj
      [
        ("null", Json.null);
        ("bools", Json.list [ Json.bool true; Json.bool false ]);
        ("int", Json.int (-42));
        ("float", Json.float 1.5);
        ("str", Json.str "hello");
        ("nested", Json.obj [ ("empty", Json.list []) ]);
      ]
  in
  Alcotest.check json "round trip" j (Json.of_string (Json.to_string j));
  Alcotest.check json "pretty round trip" j
    (Json.of_string (Json.to_string_pretty j))

let test_json_escaping () =
  let s = "quote\" backslash\\ newline\n tab\t ctrl\x01 unicode\xc3\xa9" in
  let j = Json.str s in
  (match Json.of_string (Json.to_string j) with
  | Json.Str s' -> Alcotest.(check string) "escaped string survives" s s'
  | _ -> Alcotest.fail "expected string");
  Alcotest.(check bool)
    "control char escaped" true
    (let rendered = Json.to_string j in
     not (String.contains rendered '\x01'))

let test_json_floats () =
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.float Float.nan));
  Alcotest.(check string)
    "infinity is null" "null"
    (Json.to_string (Json.float Float.infinity));
  (* a float that happens to be integral still reads back as a number *)
  (match Json.of_string (Json.to_string (Json.float 3.0)) with
  | Json.Float f -> Alcotest.(check (float 0.0)) "3.0" 3.0 f
  | Json.Int i -> Alcotest.(check int) "3" 3 i
  | _ -> Alcotest.fail "expected number");
  match Json.of_string "1e3" with
  | Json.Float f -> Alcotest.(check (float 0.0)) "1e3" 1000.0 f
  | _ -> Alcotest.fail "expected float"

let test_json_parse_errors () =
  let raises s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.fail (Fmt.str "expected Parse_error on %S" s)
  in
  raises "";
  raises "{";
  raises "[1,]";
  raises "{\"a\":1} trailing";
  raises "'single'"

let test_json_accessors () =
  let j = Json.of_string {|{"a": 1, "b": [2.5], "c": "s"}|} in
  Alcotest.(check (option int)) "member a" (Some 1)
    (Option.bind (Json.member "a" j) Json.to_int);
  Alcotest.(check (option (float 0.0)))
    "number of int" (Some 1.0)
    (Option.bind (Json.member "a" j) Json.to_number);
  Alcotest.(check (option string))
    "member c" (Some "s")
    (Option.bind (Json.member "c" j) Json.to_str);
  Alcotest.(check bool)
    "missing member" true
    (Json.member "zzz" j = None)

(* --- metrics --- *)

let test_metrics_counter_gauge () =
  let r = Metrics.create () in
  let c = Metrics.Counter.make ~registry:r "c" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.Counter.value c);
  let g = Metrics.Gauge.make ~registry:r "g" in
  Metrics.Gauge.set g 7;
  Metrics.Gauge.set_max g 3;
  Alcotest.(check int) "set_max keeps high water" 7 (Metrics.Gauge.value g);
  Metrics.Gauge.set_max g 11;
  Alcotest.(check int) "set_max raises" 11 (Metrics.Gauge.value g);
  (* make is idempotent per name *)
  let c' = Metrics.Counter.make ~registry:r "c" in
  Metrics.Counter.incr c';
  Alcotest.(check int) "same underlying counter" 6 (Metrics.Counter.value c);
  (* a name cannot change kind *)
  (match Metrics.Gauge.make ~registry:r "c" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on kind mismatch");
  Metrics.reset ~registry:r ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.Counter.value c);
  Alcotest.(check (option int))
    "lookup by name" (Some 0)
    (Metrics.counter_value ~registry:r "c")

let test_metrics_histogram_snapshot () =
  let r = Metrics.create () in
  let h = Metrics.Histogram.make ~registry:r "lat" in
  List.iter (Metrics.Histogram.observe h) [ 1; 2; 3; 100 ];
  Alcotest.(check int) "count" 4 (Metrics.Histogram.count h);
  Alcotest.(check int) "sum" 106 (Metrics.Histogram.sum h);
  Alcotest.(check int) "max" 100 (Metrics.Histogram.max_value h);
  let snap = Metrics.snapshot ~registry:r () in
  let field k =
    Option.bind (Json.member "lat" snap) (fun l -> Json.member k l)
  in
  Alcotest.(check (option int)) "snapshot count" (Some 4)
    (Option.bind (field "count") Json.to_int);
  Alcotest.(check (option int)) "snapshot sum" (Some 106)
    (Option.bind (field "sum") Json.to_int);
  Alcotest.(check bool) "snapshot has buckets" true (field "buckets" <> None);
  (* the whole snapshot is parseable JSON *)
  let reparsed = Json.of_string (Metrics.snapshot_string ~registry:r ()) in
  Alcotest.check json "snapshot string parses" snap reparsed

let test_metrics_snapshot_sorted () =
  (* registration order must not leak into the snapshot: sorted keys
     keep BENCH_results.json diffs stable across runs *)
  let r = Metrics.create () in
  ignore (Metrics.Counter.make ~registry:r "zebra");
  ignore (Metrics.Gauge.make ~registry:r "alpha");
  ignore (Metrics.Counter.make ~registry:r "middle");
  match Metrics.snapshot ~registry:r () with
  | Json.Obj fields ->
      let keys = List.map fst fields in
      Alcotest.(check (list string))
        "snapshot keys sorted by name"
        (List.sort String.compare keys)
        keys;
      Alcotest.(check (list string))
        "all registered names present"
        [ "alpha"; "middle"; "zebra" ]
        (List.sort String.compare keys)
  | _ -> Alcotest.fail "snapshot should be an object"

let test_metrics_hot_flag () =
  Alcotest.(check bool) "off by default" false (Metrics.hot ());
  let inside = Metrics.with_hot (fun () -> Metrics.hot ()) in
  Alcotest.(check bool) "on inside with_hot" true inside;
  Alcotest.(check bool) "restored after" false (Metrics.hot ())

(* --- counterexamples --- *)

let step = Alcotest.testable Counterexample.pp_step Stdlib.( = )

let sample_ce =
  {
    Counterexample.protocol = "register-naive";
    n = 2;
    kind = Counterexample.Disagreement;
    schedule = List.map (fun p -> Counterexample.Step p) [ 0; 0; 0; 1; 1; 1 ];
    decisions = [ (0, Value.pid 0); (1, Value.pid 1) ];
  }

let test_counterexample_round_trip () =
  let ce' = Counterexample.of_json (Counterexample.to_json sample_ce) in
  Alcotest.(check string) "protocol" sample_ce.Counterexample.protocol
    ce'.Counterexample.protocol;
  Alcotest.(check int) "n" 2 ce'.Counterexample.n;
  Alcotest.(check (list step)) "schedule" sample_ce.Counterexample.schedule
    ce'.Counterexample.schedule;
  Alcotest.(check (list (pair int value)))
    "decisions" sample_ce.Counterexample.decisions
    ce'.Counterexample.decisions;
  Alcotest.(check bool) "kind" true
    (ce'.Counterexample.kind = Counterexample.Disagreement)

let test_counterexample_value_encoding () =
  let values =
    [
      Value.unit;
      Value.bool true;
      Value.int (-3);
      Value.str "x\"y";
      Value.pair (Value.int 1) (Value.str "a");
      Value.list [ Value.int 1; Value.list [ Value.unit ] ];
    ]
  in
  List.iter
    (fun v ->
      Alcotest.check value "value round trip" v
        (Counterexample.value_of_json (Counterexample.value_to_json v)))
    values;
  match Counterexample.value_of_json (Json.list [ Json.str "zzz" ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on unknown tag"

let test_counterexample_save_load () =
  let path = Filename.temp_file "wfs-ce" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Counterexample.save path sample_ce;
      let ce' = Counterexample.load path in
      Alcotest.(check (list step))
        "schedule survives disk" sample_ce.Counterexample.schedule
        ce'.Counterexample.schedule;
      (* the file is plain JSON with the schema marker *)
      let ic = open_in path in
      let len = in_channel_length ic in
      let raw = really_input_string ic len in
      close_in ic;
      Alcotest.(check (option string))
        "schema" (Some "wfs-counterexample/1")
        (Option.bind (Json.member "schema" (Json.of_string raw)) Json.to_str))

let test_counterexample_rejects_bad_schema () =
  let bad = Json.obj [ ("schema", Json.str "nope/9") ] in
  match Counterexample.of_json bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on wrong schema"

(* --- export → replay end to end (Theorem 2's naive protocol) --- *)

let test_violation_export_and_replay () =
  let entry = Registry.find "register-naive" in
  let t = Option.get (entry.Registry.build ~n:2) in
  match Protocol.find_violation t with
  | None -> Alcotest.fail "naive register protocol should violate agreement"
  | Some v ->
      let ce =
        Protocol.violation_to_counterexample ~protocol:"register-naive" ~n:2 v
      in
      (* the exported schedule reproduces the same violation *)
      (match Protocol.replay_counterexample t ce with
      | Ok v' ->
          Alcotest.(check bool) "same kind" true (v'.Protocol.kind = v.Protocol.kind)
      | Error e -> Alcotest.fail ("replay diverged: " ^ e));
      (* serialization does not perturb the replay *)
      let ce' = Counterexample.of_json (Counterexample.to_json ce) in
      (match Protocol.replay_counterexample t ce' with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("replay after round trip diverged: " ^ e))

let test_replay_rejects_impossible_schedule () =
  let entry = Registry.find "register-naive" in
  let t = Option.get (entry.Registry.build ~n:2) in
  match Protocol.replay t ~schedule:[ Counterexample.Step 9 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for a pid that cannot step"

(* --- explorer metric feed --- *)

let tas_config () =
  (Rmw_consensus.test_and_set ()).Protocol.config

let counter name = Option.value ~default:0 (Metrics.counter_value name)

(* The augmented-queue protocol: its processes take two steps each, so
   interleavings still converge on shared states after the sleep-set
   reduction (one-step protocols such as test-and-set are pruned before
   they ever hit the dedup table). *)
let test_explorer_metrics_feed () =
  Metrics.reset ();
  let config = (Aug_queue_consensus.protocol ~n:2 ()).Protocol.config in
  let stats = Explorer.explore config in
  Alcotest.(check int)
    "states matches stats" stats.Explorer.states
    (counter "explorer.states");
  Alcotest.(check int) "one run recorded" 1 (counter "explorer.runs");
  Alcotest.(check bool) "dedup hits seen" true (counter "explorer.dedup_hits" > 0);
  Alcotest.(check bool)
    "lookups >= hits" true
    (counter "explorer.dedup_lookups" >= counter "explorer.dedup_hits");
  let rate = Option.value ~default:(-1.0) (Metrics.fgauge_value "explorer.dedup_hit_rate") in
  Alcotest.(check bool) "hit rate in (0,1)" true (rate > 0.0 && rate < 1.0);
  Alcotest.(check bool)
    "max depth recorded" true
    (Option.value ~default:0 (Metrics.gauge_value "explorer.max_depth") > 0);
  Alcotest.(check int) "no truncation" 0
    (counter "explorer.truncated.states" + counter "explorer.truncated.depth")

let test_explorer_truncation_metrics_distinguish_causes () =
  Metrics.reset ();
  let stats = Explorer.explore ~max_states:3 (tas_config ()) in
  Alcotest.(check bool) "truncated" true stats.Explorer.truncated;
  Alcotest.(check int) "states budget counted" 1 (counter "explorer.truncated.states");
  Alcotest.(check int) "depth budget not counted" 0 (counter "explorer.truncated.depth");
  Metrics.reset ();
  let stats = Explorer.explore ~max_depth:2 (tas_config ()) in
  Alcotest.(check bool) "truncated" true stats.Explorer.truncated;
  Alcotest.(check int) "depth budget counted" 1 (counter "explorer.truncated.depth");
  Alcotest.(check int) "states budget not counted" 0 (counter "explorer.truncated.states")

(* A truncated run interns only the states it admits: a successor
   refused by the budget keeps no key, so the interner ends exactly as
   large as the state count. *)
let test_explorer_truncation_interns_admitted_only () =
  List.iter
    (fun (label, run) ->
      Metrics.reset ();
      let stats = run () in
      Alcotest.(check bool)
        (label ^ ": truncated") true stats.Explorer.truncated;
      Alcotest.(check (option int))
        (label ^ ": interned = admitted")
        (Some stats.Explorer.states)
        (Metrics.gauge_value "explorer.intern.arena_size"))
    [
      ("depth", fun () -> Explorer.explore ~max_depth:2 (tas_config ()));
      ("states", fun () -> Explorer.explore ~max_states:3 (tas_config ()));
    ]

(* [explorer.frontier] is a live gauge: set at the batched flushes
   while a run is in progress, and back to 0 once the run ends, with
   or without a pool.  augmented-queue n=4 reaches 2713 states, so the
   sequential engine flushes it twice before it ends. *)
let test_explorer_frontier_reset () =
  let frontier () =
    Option.value ~default:(-1) (Metrics.gauge_value "explorer.frontier")
  in
  let config = (Aug_queue_consensus.protocol ~n:4 ()).Protocol.config in
  Metrics.reset ();
  let live = ref 0 in
  ignore
    (Explorer.explore ~on_terminal:(fun _ -> live := max !live (frontier ()))
       config);
  Alcotest.(check bool) "frontier fed mid-run" true (!live > 0);
  Alcotest.(check int) "frontier 0 after a sequential run" 0 (frontier ());
  Metrics.reset ();
  Pool.with_pool ~domains:2 (fun pool ->
      ignore (Explorer.explore ~pool config));
  Alcotest.(check int) "frontier 0 after a 2-domain run" 0 (frontier ())

(* --- metric coverage: every documented family is fed ---

   Real entry points, run under [Metrics.with_hot], must give every
   metric family in README's "Names you can rely on" table a non-zero
   sample; a documented metric that nothing feeds fails here.  A name
   ending in '.' covers every registered instrument under that prefix
   (labelled series included).  [scheduling] names move only when
   domains collide — a contended lock, an idle pool member, a lost CAS
   or consensus race that sends an operation to the help path — so
   they need only be registered.  [run_scoped] gauges read 0 once a run
   ends, so they too need only be registered here; "frontier reset"
   checks them mid-run and after. *)

let documented =
  [
    "explorer.runs"; "explorer.states"; "pool.shard.";
    "intern."; "solver.nodes"; "solver.memo."; "explorer.dedup_hits";
    "explorer.dedup_lookups"; "explorer.dedup_hit_rate"; "explorer.max_depth";
    "explorer.truncated.states"; "explorer.truncated.depth";
    "valency.memo_hits"; "valency.memo_misses"; "valency.critical_searches";
    "valency.critical_found"; "universal_rt.lock_free.";
    "universal_rt.wait_free."; "fetch_and_cons_rt.cas.";
    "fetch_and_cons_rt.rounds.rounds_per_op";
  ]

let scheduling =
  [
    "intern.contention"; "intern.stripe.contention"; "pool.shard.idle_ns";
    "fetch_and_cons_rt.cas.retries"; "universal_rt.lock_free.cas_retries";
    "universal_rt.wait_free.help_rounds";
    "universal_rt.wait_free.help_rounds_hist";
    "universal_rt.wait_free.announce_occupancy";
  ]

let run_scoped = [ "explorer.frontier" ]

let test_documented_metrics_fed () =
  let module Rt = Wfs_runtime in
  Metrics.reset ();
  Metrics.with_hot (fun () ->
      let build key n = Option.get ((Registry.find key).Registry.build ~n) in
      ignore (Protocol.verify (build "cas" 3));
      ignore (Valency.find_critical (build "test-and-set" 2).Protocol.config);
      let cas4 = (build "cas" 4).Protocol.config in
      ignore (Explorer.explore ~max_states:100 cas4);
      ignore (Explorer.explore ~max_depth:4 cas4);
      ignore
        (Wfs_hierarchy.Solver.solve
           (Wfs_hierarchy.Solver.of_spec ~n:2 ~depth:2
              (Registers.test_and_set ())));
      ignore
        (Wfs_universal.Log_universal.verify
           ~target:(Collections.counter ~name:"c" ())
           ~scripts:[| [ Collections.incr ]; [ Collections.incr ] |]
           ());
      Pool.with_pool ~domains:2 (fun pool ->
          ignore (Protocol.verify ~pool (build "augmented-queue" 3)));
      (* last exploration, because explorer.dedup_hit_rate is per run:
         2713 states whose two-step processes reach shared states *)
      ignore (Protocol.verify (build "augmented-queue" 4));
      ignore (Rt.Service.Load.run ~clients:2 ~ops_per_client:2_000 ());
      let module LF = Rt.Universal_rt.Lock_free (Rt.Seq_objects.Counter) in
      let c = LF.create () in
      ignore
        (Rt.Primitives.run_domains 2 (fun _ ->
             for _ = 1 to 1_000 do
               ignore (LF.apply c Rt.Seq_objects.Counter.Incr)
             done));
      let module Fac = Rt.Fetch_and_cons_rt in
      let cas = Fac.Cas_based.make () in
      for i = 1 to 100 do
        ignore (Fac.Cas_based.fetch_and_cons cas i)
      done;
      let rounds = Fac.Rounds.make ~n:2 ~equal:Int.equal in
      let h = Fac.Rounds.handle rounds ~pid:0 in
      for i = 1 to 100 do
        ignore (Fac.Rounds.fetch_and_cons h i)
      done);
  (* one family per base name: the labelled series of a pool shard or
     an interner stripe are members of it *)
  let dump =
    List.map
      (fun (name, v) ->
        match String.index_opt name '{' with
        | Some i -> (String.sub name 0 i, v)
        | None -> (name, v))
      (Metrics.dump ())
  in
  let covers family name =
    if String.ends_with ~suffix:"." family then
      String.starts_with ~prefix:family name
    else String.equal family name
  in
  let nonzero = function
    | Metrics.D_counter v | Metrics.D_gauge v -> v <> 0
    | Metrics.D_fgauge f -> f <> 0.
    | Metrics.D_histogram { d_count; _ } -> d_count > 0
  in
  Alcotest.(check (list string))
    "every family registered" []
    (List.filter
       (fun family -> not (List.exists (fun (n, _) -> covers family n) dump))
       (documented @ scheduling @ run_scoped));
  Alcotest.(check (list string))
    "no documented family left at zero" []
    (List.sort_uniq String.compare (List.map fst dump)
    |> List.filter (fun name ->
           List.exists (fun f -> covers f name) documented
           && (not (List.exists (fun f -> covers f name) scheduling))
           && not
                (List.exists (fun (n, v) -> n = name && nonzero v) dump)))

(* --- clock --- *)

let test_clock_precision () =
  let module Clock = Wfs_obs.Clock in
  (* exact on representable inputs *)
  Alcotest.(check int) "1.5 s" 1_500_000_000 (Clock.of_gettimeofday 1.5);
  Alcotest.(check int) "whole seconds exact"
    1_754_000_000_000_000_000
    (Clock.of_gettimeofday 1.754e9);
  (* the regression: at current-epoch magnitude, nanoseconds exceed the
     53-bit double mantissa, so a single [*. 1e9] would quantize to
     ~256 ns steps; adjacent representable doubles (~238 ns apart) must
     map to distinct, properly spaced integers *)
  let s1 = 1.754e9 +. 0.123456 in
  let s2 = Float.succ s1 in
  let n1 = Clock.of_gettimeofday s1 and n2 = Clock.of_gettimeofday s2 in
  Alcotest.(check bool) "adjacent doubles distinguished" true (n2 > n1);
  Alcotest.(check bool)
    "spacing below the naive 256 ns quantum" true
    (n2 - n1 < 256)

let test_clock_monotone () =
  let module Clock = Wfs_obs.Clock in
  let ok = ref true in
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now_ns () in
    if t < !prev then ok := false;
    prev := t
  done;
  Alcotest.(check bool) "never goes backwards" true !ok;
  let (), dt = Clock.elapsed_ns (fun () -> ignore (Sys.opaque_identity 1)) in
  Alcotest.(check bool) "elapsed non-negative" true (dt >= 0)

(* The span clock must resolve sub-microsecond spans: per-operation
   latencies of a few hundred ns read as 0 on a microsecond clock. *)
let test_mono_clock () =
  let module Clock = Wfs_obs.Clock in
  let monotone = ref true and fine = ref false in
  let prev = ref (Clock.mono_ns ()) in
  for _ = 1 to 10_000 do
    let t = Clock.mono_ns () in
    if t < !prev then monotone := false;
    if (t - !prev) mod 1000 <> 0 then fine := true;
    prev := t
  done;
  Alcotest.(check bool) "never goes backwards" true !monotone;
  Alcotest.(check bool) "sub-microsecond resolution" true !fine

let suite =
  [
    ( "obs.clock",
      [
        Alcotest.test_case "sub-microsecond precision at epoch scale" `Quick
          test_clock_precision;
        Alcotest.test_case "monotone across 10k reads" `Quick
          test_clock_monotone;
        Alcotest.test_case "monotonic span clock resolves ns" `Quick
          test_mono_clock;
      ] );
    ( "obs.json",
      [
        Alcotest.test_case "round trip" `Quick test_json_round_trip;
        Alcotest.test_case "escaping" `Quick test_json_escaping;
        Alcotest.test_case "floats" `Quick test_json_floats;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "counter/gauge" `Quick test_metrics_counter_gauge;
        Alcotest.test_case "histogram + snapshot" `Quick
          test_metrics_histogram_snapshot;
        Alcotest.test_case "snapshot sorted by name" `Quick
          test_metrics_snapshot_sorted;
        Alcotest.test_case "hot flag" `Quick test_metrics_hot_flag;
      ] );
    ( "obs.counterexample",
      [
        Alcotest.test_case "json round trip" `Quick
          test_counterexample_round_trip;
        Alcotest.test_case "value encoding" `Quick
          test_counterexample_value_encoding;
        Alcotest.test_case "save/load" `Quick test_counterexample_save_load;
        Alcotest.test_case "rejects bad schema" `Quick
          test_counterexample_rejects_bad_schema;
      ] );
    ( "obs.replay",
      [
        Alcotest.test_case "export then replay (Thm 2)" `Quick
          test_violation_export_and_replay;
        Alcotest.test_case "impossible schedule rejected" `Quick
          test_replay_rejects_impossible_schedule;
      ] );
    ( "obs.explorer-metrics",
      [
        Alcotest.test_case "states/dedup feed" `Quick
          test_explorer_metrics_feed;
        Alcotest.test_case "every documented family fed" `Quick
          test_documented_metrics_fed;
        Alcotest.test_case "truncation causes distinguished" `Quick
          test_explorer_truncation_metrics_distinguish_causes;
        Alcotest.test_case "truncated runs intern admitted states only" `Quick
          test_explorer_truncation_interns_admitted_only;
        Alcotest.test_case "frontier reset when a run ends" `Quick
          test_explorer_frontier_reset;
      ] );
  ]
