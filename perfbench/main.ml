(* perfbench: the repository's benchmark.

     main.exe --workload W --seed S --seconds R --trace 0|1
     main.exe --selftest

   Prints a human-readable summary, then as its last line one JSON
   object {correct, attempted, failed, metrics}.  With --trace 0 the
   metrics are the end-to-end ones below, measured for R seconds with
   no tracing.  With --trace 1 the run spends R/2 seconds untraced and
   R/2 traced, and the metrics are the per-layer ones: layer counters
   and self times of the traced passes, the share of traced wall time
   the layer spans cover, and the tracing overhead.  See README.md. *)

module W = Workload

let workloads () =
  [
    ("census", fun () -> Engine.census ~name:"census" Expected.census);
    ("verify-explore", fun () -> Engine.verify ~name:"verify-explore" Expected.verify);
    ("service-kv", fun () -> Service_load.make ~name:"service-kv" Service_load.kv_mix);
  ]

(* {1 Metric catalog} — must list the same names as BENCHMARK.json. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("verdict_s", "s");
    ("ops_per_s", "1/s");
    ("lat_p50_ns", "ns");
    ("lat_p99_ns", "ns");
    ("peak_heap_mb", "MB");
  ]

(* Metric names allow letters, digits, '_', '.' and '-' only. *)
let metric_name s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> c | _ -> '_')
    s

let per_layer =
  List.map
    (fun (e : Expected.census_row) -> ("census.row_s." ^ metric_name e.obj, "s"))
    Expected.census
  @ List.map
      (fun (e : Expected.verify_row) ->
        (Printf.sprintf "verify.protocol_s.%s-n%d" e.key e.n, "s"))
      Expected.verify
  @ [
      ("solver.nodes", "count");
      ("solver.ns_per_node", "ns");
      ("solver.sleep_cutoffs", "count");
      ("solver.view_intern.hit_rate", "ratio");
      ("tt.hit_rate", "ratio");
      ("tt.footprint_rejects_per_node", "ratio");
      ("tt.backjumps", "count");
      ("solver.ns_per_node.capped", "ns");
      ("explorer.states", "count");
      ("explorer.ns_per_state", "ns");
      ("explorer.por.pruned_per_state", "ratio");
      ("explorer.intern.hit_rate", "ratio");
      ("explorer.dedup_hit_rate", "ratio");
      ("universal_rt.fastpath_loss", "ratio");
      ("universal_rt.self_ns_per_op", "ns");
      ("universal_rt.batch_size_mean", "ops");
      ("universal_rt.help_rounds_p99", "count");
      ("universal_rt.retained_max", "count");
      ("spec.apply_calls_per_op", "ratio");
      ("spec.apply_ns", "ns");
      ("gc.minor_words_per_op", "words");
      ("gc.major_collections", "count");
      ("trace.self_coverage", "ratio");
      ("trace.overhead", "ratio");
    ]

(* {1 Phases} *)

type phase = {
  setups : float list;  (** seconds *)
  passes : W.pass list;
}

(* Runs passes while the next one is predicted to end no more than
   half a pass past the deadline (at least one pass), so a phase
   rounds to the nearest whole number of passes.  Each pass has its own
   set-up. *)
let run_phase (w : W.t) ~seed ~traced ~first_pass ~seconds =
  let deadline = Stats.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go i setups passes iters =
    let predicted = if iters = [] then 0. else Stats.median iters in
    if i > 0 && float_of_int (Stats.now_ns ()) +. (predicted /. 2.) > float_of_int deadline then
      { setups = List.rev setups; passes = List.rev passes }
    else begin
      let a = Stats.now_ns () in
      let run = w.prepare ~seed ~pass:(first_pass + i) ~traced in
      let b = Stats.now_ns () in
      let p = run () in
      let c = Stats.now_ns () in
      go (i + 1) (float_of_int (b - a) *. 1e-9 :: setups) (p :: passes)
        (float_of_int (c - a) :: iters)
    end
  in
  go 0 [] [] []

(* [prepare] repeated off the clock until there are [n] set-up times:
   engine workloads make only a few passes a run. *)
let setup_samples (w : W.t) ~seed ph n =
  let extra =
    List.init (max 0 (n - List.length ph.setups)) (fun i ->
        let a = Stats.now_ns () in
        let (_ : unit -> W.pass) = w.prepare ~seed ~pass:(1_000_000 + i) ~traced:false in
        float_of_int (Stats.now_ns () - a) *. 1e-9)
  in
  ph.setups @ extra

let wall_s (p : W.pass) = float_of_int p.wall_ns *. 1e-9
let median_by f ph = Stats.median (List.map f ph.passes)
let mean_by f ph = Stats.mean (List.map f ph.passes)
let sum_by f ph = List.fold_left (fun a p -> a +. f p) 0. ph.passes

(* Times are means over the run's passes, not medians: the host's
   slow spells last seconds, so a run's passes fall into a fast and a
   slow mode and their median jumps between the two from run to run,
   while the mean moves with the share of slow time.  The heap peak,
   which does not depend on the host, keeps the median. *)
let end_to_end_metrics (w : W.t) ~seed ph =
  [
    ("setup_s", Stats.median (setup_samples w ~seed ph 15));
    ("verdict_s", mean_by wall_s ph);
    ("ops_per_s", sum_by (fun p -> float_of_int p.attempted) ph /. sum_by wall_s ph);
    ("lat_p50_ns", mean_by (fun p -> p.lat_p50) ph);
    ("lat_p99_ns", mean_by (fun p -> p.lat_p99) ph);
    ("peak_heap_mb", median_by (fun p -> float_of_int (p.peak_words * (Sys.word_size / 8)) /. 1e6) ph);
  ]

let coverage ph =
  W.ratio
    (List.fold_left (fun a (p : W.pass) -> a + p.covered_ns) 0 ph.passes)
    (List.fold_left (fun a (p : W.pass) -> a + p.span_wall_ns) 0 ph.passes)

(* {1 Output} *)

let json_number v = Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics))

(* Fills the catalog from measured values; a layer the workload does
   not exercise reads 0. *)
let catalog names measured =
  List.map
    (fun (name, unit) ->
      (name, unit, Option.value ~default:0. (List.assoc_opt name measured)))
    names

(* Attempts, failures and the [correct] flag of a run: any failed call,
   a failed check ([ok] false) or a non-finite metric makes it
   incorrect. *)
let outcome ?(ok = true) phases metrics =
  let attempted, failed =
    List.fold_left
      (fun acc ph ->
        List.fold_left (fun (a, f) (p : W.pass) -> (a + p.attempted, f + p.failed)) acc ph.passes)
      (0, 0) phases
  in
  (attempted, failed, failed = 0 && ok && List.for_all (fun (_, _, v) -> Float.is_finite v) metrics)

let summary name ph =
  let calls = List.fold_left (fun a (p : W.pass) -> a + p.attempted) 0 ph.passes in
  Printf.printf "%s: %d passes, %d timed calls\n" name (List.length ph.passes) calls;
  List.iteri
    (fun i (p : W.pass) ->
      Printf.printf "  pass %2d  %.4f s  p50 %.0f ns  p99 %.0f ns  %s\n" i (wall_s p) p.lat_p50
        p.lat_p99 p.note)
    ph.passes

let print_metrics metrics =
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-38s %14.6g %s\n" name v unit)
    metrics

let run ~workload ~seed ~seconds ~trace =
  let w =
    match List.assoc_opt workload (workloads ()) with
    | Some make -> make ()
    | None ->
        Printf.eprintf "unknown workload %S (have %s)\n" workload
          (String.concat ", " (List.map fst (workloads ())));
        exit 2
  in
  if not trace then begin
    let ph = run_phase w ~seed ~traced:false ~first_pass:0 ~seconds in
    let metrics = catalog end_to_end (end_to_end_metrics w ~seed ph) in
    let attempted, failed, correct = outcome [ ph ] metrics in
    summary workload ph;
    print_metrics metrics;
    List.iter (fun (k, v) -> Printf.printf "  %-38s %14.6g\n" k v) (w.info ());
    Printf.printf "  failures: %d of %d attempted\n" failed attempted;
    print_endline (result_line ~correct ~attempted ~failed metrics)
  end
  else begin
    let plain = run_phase w ~seed ~traced:false ~first_pass:0 ~seconds:(seconds /. 2.) in
    W.spans := [];
    w.begin_traced ();
    let traced =
      run_phase w ~seed ~traced:true ~first_pass:(List.length plain.passes) ~seconds:(seconds /. 2.)
    in
    let cover = coverage traced in
    let overhead = (mean_by wall_s traced /. mean_by wall_s plain) -. 1. in
    let metrics =
      catalog per_layer
        ((("trace.self_coverage", cover) :: ("trace.overhead", overhead) :: w.layers ())
        |> List.map (fun (k, v) -> (metric_name k, v)))
    in
    let cover_ok = Float.abs (cover -. 1.) <= 0.10 in
    let attempted, failed, correct = outcome ~ok:cover_ok [ plain; traced ] metrics in
    summary (workload ^ " untraced") plain;
    summary (workload ^ " traced") traced;
    print_metrics metrics;
    if not cover_ok then
      Printf.eprintf "layer self times cover %.1f%% of traced wall time (need 90-110%%)\n"
        (100. *. cover);
    let dir = Filename.concat "perfbench" "_out" in
    (try
       if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
       let path = Filename.concat dir (workload ^ ".spans.jsonl") in
       W.write_spans path;
       Printf.printf "  spans written to %s\n" path
     with Sys_error e -> Printf.eprintf "spans not written: %s\n" e);
    Printf.printf "  failures: %d of %d attempted\n" failed attempted;
    print_endline (result_line ~correct ~attempted ~failed metrics)
  end

(* {1 Self-test}

   A doctored expectation and a corrupted result must both come out of
   the same code path as the real runs as failures — counted in
   [failed] with [correct] false — and not as a slower run. *)

let selftest () =
  let ok = ref true in
  let expect what cond =
    Printf.printf "%-62s %s\n" what (if cond then "ok" else "FAILED");
    if not cond then ok := false
  in
  (* one pass, reported exactly as an untraced run reports it *)
  let reported (w : W.t) =
    let ph = run_phase w ~seed:1 ~traced:false ~first_pass:0 ~seconds:0. in
    outcome [ ph ] (catalog end_to_end (end_to_end_metrics w ~seed:1 ph))
  in
  let counter_row =
    List.find (fun (e : Expected.census_row) -> e.obj = "counter") Expected.census_conclusive
  in
  let census rows = reported (Engine.census ~name:"selftest" rows) in
  let a, f, correct = census [ counter_row ] in
  expect "census row as expected: no failure" (a = 1 && f = 0 && correct);
  let doctored =
    { counter_row with two = { counter_row.two with init = Some "1" } }
  in
  let a, f, correct = census [ doctored ] in
  expect "census row, doctored winning init: one failure" (a = 1 && f = 1 && not correct);
  let m = Wfs.Census.measure (Wfs.Zoo.find "counter") in
  expect "census result with a flipped verdict: mismatch"
    (Expected.check_census counter_row { m with two_proc = (Wfs.Census.Unsolvable, snd m.two_proc) }
     <> []);
  let capped = Expected.census_capped in
  expect "capped cell that reads unsolvable: mismatch"
    (Expected.check_census capped
       { m with object_name = capped.obj; inits_tried = capped.inits; two_proc = (Wfs.Census.Unsolvable, 0);
         winning_init2 = None; three_proc = (Wfs.Census.Unsolvable, 0); winning_init3 = None }
     <> []);
  let cas = { Expected.key = "cas"; n = 3; states = 0 } in
  let states =
    (Wfs.Protocol.verify (Option.get ((Wfs.Registry.find "cas").build ~n:3))).states
  in
  let verify rows = reported (Engine.verify ~name:"selftest" rows) in
  let _, f, correct = verify [ { cas with states } ] in
  expect "explorer state count as expected: no failure" (f = 0 && correct);
  let _, f, correct = verify [ { cas with states = states + 1 } ] in
  expect "explorer state count doctored: one failure" (f = 1 && not correct);
  let small = { Service_load.kv_mix with ops_per_client = 2_000 } in
  let service corrupt = reported (Service_load.make ~corrupt ~name:"selftest" small) in
  let a, f, correct = service ignore in
  expect "service pass: every operation replays" (a = 4_000 && f = 0 && correct);
  let _, f, correct =
    service (fun outs -> outs.(1).Service_load.res.(7) <- Wfs.Value.str "corrupted")
  in
  expect "service pass, one corrupted result: one failure" (f = 1 && not correct);
  let _, f, correct =
    service (fun outs -> outs.(0).Service_load.pos.(3) <- outs.(1).Service_load.pos.(5))
  in
  expect "service pass, duplicated position: failures" (f >= 1 && not correct);
  if !ok then print_endline "selftest passed"
  else begin
    print_endline "selftest FAILED";
    exit 1
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1 for the traced per-layer run");
      ("--selftest", Arg.Set self, " check that wrong outputs count as failures");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed S --seconds R --trace 0|1";
  if !self then selftest ()
  else if !workload = "" then begin
    prerr_endline "--workload is required";
    exit 2
  end
  else run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
