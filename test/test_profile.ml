(* Tests for Wfs_obs.Profile (the event recorder) and its integration
   points: structural validity of the exported Chrome trace (balanced
   B/E per tid, non-decreasing timestamps, one thread row per domain),
   the no-tearing guarantee under ring wraparound, spans and causal
   events sharing one store, the pool's per-member series, and the
   invariant that profiling does not perturb parallel verification
   verdicts. *)

open Wfs_sim
open Wfs_consensus
module Json = Wfs_obs.Json
module Profile = Wfs_obs.Profile
module Causal = Wfs_obs.Causal

(* --- trace structure helpers --- *)

let trace_events j =
  match Json.member "traceEvents" j with
  | Some (Json.List evs) -> evs
  | _ -> Alcotest.fail "traceEvents missing or not a list"

let str_field k ev = Option.bind (Json.member k ev) Json.to_str
let num_field k ev = Option.bind (Json.member k ev) Json.to_number
let int_field k ev = Option.bind (Json.member k ev) Json.to_int

(* Every tid that appears on a non-metadata event, with that tid's
   events in file order. *)
let events_by_tid evs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match (str_field "ph" ev, int_field "tid" ev) with
      | Some ph, Some tid when ph <> "M" ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl tid) in
          Hashtbl.replace tbl tid (ev :: prev)
      | _ -> ())
    evs;
  Hashtbl.fold (fun tid evs acc -> (tid, List.rev evs) :: acc) tbl []

let thread_name_tids evs =
  List.filter_map
    (fun ev ->
      match (str_field "ph" ev, str_field "name" ev) with
      | Some "M", Some "thread_name" -> int_field "tid" ev
      | _ -> None)
    evs

(* The structural contract: per tid, B/E balanced (depth never negative,
   zero at the end) and ts non-decreasing in file order. *)
let check_tid_structure (tid, evs) =
  let depth = ref 0 and last_ts = ref neg_infinity in
  List.iter
    (fun ev ->
      let ts =
        match num_field "ts" ev with
        | Some ts -> ts
        | None -> Alcotest.fail (Fmt.str "tid %d: event without ts" tid)
      in
      Alcotest.(check bool)
        (Fmt.str "tid %d: ts non-decreasing" tid)
        true (ts >= !last_ts);
      last_ts := ts;
      match str_field "ph" ev with
      | Some "B" -> incr depth
      | Some "E" ->
          decr depth;
          Alcotest.(check bool)
            (Fmt.str "tid %d: E never precedes its B" tid)
            true (!depth >= 0)
      | Some ("i" | "C" | "X" | "s" | "f") -> ()
      | ph ->
          Alcotest.fail
            (Fmt.str "tid %d: unexpected ph %a" tid
               Fmt.(option string)
               ph))
    evs;
  Alcotest.(check int) (Fmt.str "tid %d: B/E balanced" tid) 0 !depth

let check_trace_structure j =
  let evs = trace_events j in
  List.iter check_tid_structure (events_by_tid evs)

(* One thread_name row per domain, covering every track with events,
   and at least [min] such tracks, each structurally valid. *)
let check_domain_rows ~min evs =
  let rows = thread_name_tids evs in
  Alcotest.(check int)
    "no duplicate thread rows" (List.length rows)
    (List.length (List.sort_uniq compare rows));
  let by_tid = events_by_tid evs in
  List.iter
    (fun (tid, _) ->
      Alcotest.(check bool) (Fmt.str "tid %d has a thread row" tid) true (List.mem tid rows))
    by_tid;
  Alcotest.(check bool) (Fmt.str "events on >= %d tids" min) true (List.length by_tid >= min);
  List.iter check_tid_structure by_tid

let with_ph ph evs = List.filter (fun ev -> str_field "ph" ev = Some ph) evs

(* Record with both switches on, whatever happens leave the store off
   and empty; returns the exported trace. *)
let recording ?ring_capacity f =
  Profile.enable ?ring_capacity ();
  Causal.enable ~sample:1 ();
  Fun.protect
    ~finally:(fun () ->
      Causal.disable ();
      Profile.disable ();
      Profile.reset ())
    (fun () ->
      f ();
      Profile.to_json ())

(* --- disabled path --- *)

let test_disabled_noop () =
  Alcotest.(check bool) "off by default" false (Profile.enabled ());
  let r =
    Profile.span "ignored"
      ~args:(fun () -> Alcotest.fail "args thunk forced while disabled")
      (fun () -> 41 + 1)
  in
  Alcotest.(check int) "span passes result through" 42 r;
  Profile.begin_ "ignored";
  Profile.end_ ();
  Profile.instant "ignored";
  Profile.counter "ignored" [ ("v", 1.0) ];
  Alcotest.(check int) "nothing recorded" 0 (Profile.recorded ())

let test_span_propagates_exceptions () =
  (* the span closes on the way out: the trace stays balanced *)
  check_trace_structure
    (recording (fun () ->
         match Profile.span "boom" (fun () -> failwith "boom") with
         | exception Failure _ -> ()
         | _ -> Alcotest.fail "expected Failure"))

(* --- multi-domain export --- *)

let test_multi_domain_trace () =
  let work label =
    Profile.span "outer" ~cat:"test"
      ~args:(fun () -> [ ("who", Json.str label) ])
      (fun () ->
        for i = 1 to 5 do
          Profile.span "inner" (fun () -> ignore (Sys.opaque_identity i))
        done;
        Profile.instant "mark")
  in
  let j =
    recording (fun () ->
        work "main";
        Array.init 2 (fun i -> Domain.spawn (fun () -> work (Fmt.str "d%d" i)))
        |> Array.iter Domain.join)
  in
  (* serialized form is valid JSON and survives a round trip *)
  let j = Json.of_string (Json.to_string_pretty j) in
  let evs = trace_events j in
  check_domain_rows ~min:3 evs;
  (* instants made it through with their phase *)
  Alcotest.(check int) "one instant per domain" 3 (List.length (with_ph "i" evs))

(* --- spans and causal events in one store --- *)

let toy_op ?(pid = 0) ?(steps = 1) ?(body = ignore) () =
  let tr = Causal.issue () in
  Causal.invoke ~obj:"toy" ~trace:tr ~pid;
  body tr;
  Causal.complete ~obj:"toy" ~trace:tr ~pos:tr ~own_steps:steps ~help_rounds:0

(* Two toy invocations on two domains, each inside a span; the second
   helps the first, so the export carries a cross-domain flow pair. *)
let mixed () =
  Causal.meta ~obj:"toy" ~n:2 ~bound:10;
  Profile.span "outer" ~cat:"test" (fun () ->
      toy_op ~steps:3
        ~body:(fun helped ->
          Domain.join
            (Domain.spawn (fun () ->
                 Profile.span "helper" (fun () ->
                     toy_op ~pid:1
                       ~body:(fun helper -> Causal.help ~obj:"toy" ~helper ~helped ~pos:0)
                       ()))))
        ())

let test_merged_export () =
  let j = Json.of_string (Json.to_string (recording mixed)) in
  let evs = trace_events j in
  check_domain_rows ~min:2 evs;
  Alcotest.(check int) "both spans" 2 (List.length (with_ph "B" evs));
  Alcotest.(check (list (option string)))
    "both invocations sliced" [ Some "causal.op"; Some "causal.op" ]
    (List.map (str_field "cat") (with_ph "X" evs));
  (match (with_ph "s" evs, with_ph "f" evs) with
  | [ s ], [ f ] ->
      Alcotest.(check (option int)) "flow ids pair up" (int_field "id" s) (int_field "id" f);
      Alcotest.(check bool) "arrow crosses tracks" true (int_field "tid" s <> int_field "tid" f)
  | ss, fs -> Alcotest.failf "expected one flow pair, got %d/%d" (List.length ss) (List.length fs));
  Alcotest.(check bool)
    "the merged file audits clean" true
    (Causal.Audit.ok (Causal.Audit.of_trace_json j))

(* Neither switch discards what the other already recorded. *)
let test_switches_keep_records () =
  let j =
    recording (fun () ->
        Causal.disable ();
        Profile.span "kept" (fun () -> ());
        Causal.enable ~sample:1 ())
  in
  Alcotest.(check (list (option string)))
    "span before causal enable kept" [ Some "kept" ]
    (List.map (str_field "name") (with_ph "B" (trace_events j)));
  let j =
    recording (fun () ->
        Profile.disable ();
        toy_op ();
        Profile.enable ())
  in
  Alcotest.(check int) "causal event before Profile.enable kept" 1
    (List.length (with_ph "X" (trace_events j)))

(* --- ring wraparound never tears a span (qcheck) --- *)

(* A script is a list of small commands run against a capacity-8 ring:
   0 = leaf span, 1 = instant, 2 = nested span pair, 3 = counter
   sample, 4 = a causal invocation inside a span, 5 = causal slots
   between an outer span's begin and an inner span.  Any script long
   enough to wrap must still export balanced, monotone events —
   wraparound drops whole spans, never halves. *)
let run_script script =
  List.iter
    (function
      | 0 -> Profile.span "leaf" (fun () -> ())
      | 1 -> Profile.instant "i"
      | 2 ->
          Profile.span "outer" (fun () ->
              Profile.span "inner" (fun () -> ()))
      | 3 -> Profile.counter "c" [ ("v", 3.) ]
      | 4 -> Profile.span "around" toy_op
      | _ ->
          Profile.span "outer" (fun () ->
              toy_op ();
              Profile.span "inner" toy_op))
    script

let prop_wraparound_balanced =
  QCheck2.Test.make ~name:"ring wraparound never tears a span" ~count:100
    QCheck2.Gen.(list_size (int_range 20 60) (int_range 0 5))
    (fun script ->
      let dropped = ref 0 in
      let j =
        recording ~ring_capacity:8 (fun () ->
            run_script script;
            dropped := Profile.dropped ())
      in
      (* >= 20 commands into 8 slots: the ring must have wrapped *)
      if !dropped = 0 then
        QCheck2.Test.fail_report "expected wraparound drops";
      check_trace_structure j;
      true)

let test_jsonl_both_kinds () =
  let path = Filename.temp_file "wfs-dump" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore (recording (fun () -> mixed (); ignore (Profile.dump_jsonl path)));
      let kinds =
        In_channel.with_open_text path In_channel.input_lines
        |> List.map (fun l -> str_field "kind" (Json.of_string l))
      in
      List.iter
        (fun k -> Alcotest.(check bool) (k ^ " line present") true (List.mem (Some k) kinds))
        [ "meta"; "span"; "invoke"; "help"; "complete" ])

(* --- pool shard series --- *)

let test_pool_shard_series () =
  let module Metrics = Wfs_obs.Metrics in
  Metrics.reset ();
  Pool.with_pool ~domains:2 (fun pool ->
      let out =
        Pool.parallel_map pool
          (fun i ->
            ignore (Sys.opaque_identity (i * i));
            i)
          (Array.init 64 Fun.id)
      in
      Alcotest.(check int) "batch ran" 64 (Array.length out));
  let shard base me = Metrics.labeled base [ ("shard", string_of_int me) ] in
  let read get name =
    match get name with
    | Some v -> v
    | None -> Alcotest.failf "%s not registered" name
  in
  let jobs me = read Metrics.counter_value (shard "pool.shard.jobs" me) in
  Alcotest.(check int) "every job counted exactly once" 64 (jobs 0 + jobs 1);
  Alcotest.(check int) "pool.jobs agrees" 64
    (read Metrics.counter_value "pool.jobs");
  for me = 0 to 1 do
    Alcotest.(check bool)
      "busy_ns non-negative" true
      (read Metrics.gauge_value (shard "pool.shard.busy_ns" me) >= 0);
    Alcotest.(check bool)
      "idle_ns non-negative" true
      (read Metrics.gauge_value (shard "pool.shard.idle_ns" me) >= 0);
    Alcotest.(check int)
      "one job_ns observation per job" (jobs me)
      (Metrics.Histogram.count
         (Metrics.Histogram.make (shard "pool.shard.job_ns" me)))
  done

(* --- profiling does not perturb parallel verdicts --- *)

let test_profiled_parallel_verdict_identical () =
  let p = Cas_consensus.protocol ~n:3 () in
  let baseline = Fmt.str "%a" Protocol.pp_report (Protocol.verify p) in
  let profiled =
    Profile.enable ();
    Fun.protect
      ~finally:(fun () ->
        Profile.disable ();
        Profile.reset ())
      (fun () ->
        Pool.with_pool ~domains:2 (fun pool ->
            Fmt.str "%a" Protocol.pp_report (Protocol.verify ~pool p)))
  in
  Alcotest.(check string)
    "parallel + profiling verdict byte-identical to sequential" baseline
    profiled

let suite =
  [
    ( "obs.profile",
      [
        Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
        Alcotest.test_case "exceptions close spans" `Quick
          test_span_propagates_exceptions;
        Alcotest.test_case "multi-domain trace structure" `Quick
          test_multi_domain_trace;
        Alcotest.test_case "pool member stats" `Quick test_pool_shard_series;
        Alcotest.test_case "profiled parallel verdict identical" `Quick
          test_profiled_parallel_verdict_identical;
        QCheck_alcotest.to_alcotest prop_wraparound_balanced;
        Alcotest.test_case "spans and causal events in one export" `Quick
          test_merged_export;
        Alcotest.test_case "neither switch discards the other" `Quick
          test_switches_keep_records;
        Alcotest.test_case "JSONL dump carries both kinds" `Quick
          test_jsonl_both_kinds;
      ] );
  ]
