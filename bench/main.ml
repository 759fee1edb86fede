(* The benchmark harness: regenerates every table/figure-shaped result in
   the paper and measures this repository's constructions.

   The paper (PODC 1988) is a theory paper; its one data figure is the
   consensus hierarchy (Figure 1-1), and its "evaluation" is the set of
   theorems.  Accordingly each section below either regenerates a
   figure/theorem as machine-checked data, or measures the cost of the
   constructions the paper only proves exist.  Experiment ids match
   DESIGN.md and EXPERIMENTS.md.

   NOTE on hardware: this container exposes a SINGLE CPU core, so the
   multi-domain sections measure interleaved concurrency (OS
   timesharing), not parallelism.  Shapes — who wins, how costs grow —
   are meaningful; absolute scaling with cores is not measurable here. *)

open Wfs
open Bechamel
open Toolkit

(* ---------- BENCH_results.json accumulation ----------

   Every bechamel row and hand-timed series lands in these refs; the
   harness writes them as [BENCH_results.json] on exit so the perf
   trajectory is machine-trackable PR over PR (schema in
   EXPERIMENTS.md). *)

let ols_rows : (string * float * float) list ref = ref []
let series_rows : (string * Obs.Json.t) list ref = ref []

(* Wall-clock duration + monotonic start stamp of every section run, so
   perf trajectories in [series]/[ns_per_op] can be correlated with a
   [--profile] trace of the same process (both clocks are Clock.now_ns). *)
let section_timings : (string * Obs.Json.t) list ref = ref []

let record_ns name ns r2 = ols_rows := (name, ns, r2) :: !ols_rows
let record_series name json = series_rows := (name, json) :: !series_rows

(* HEAD commit without shelling out: find the checkout by walking up
   from the executable (the harness may run from any working
   directory), then follow [.git/HEAD] through loose and packed refs.
   "unknown" outside a checkout — the stamp is a provenance aid, never
   a failure. *)
let git_dir () =
  let rec up dir =
    let candidate = Filename.concat dir ".git" in
    if Sys.file_exists candidate && Sys.is_directory candidate then
      Some candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  match up (Filename.dirname (Unix.realpath Sys.executable_name)) with
  | Some d -> Some d
  | None | (exception Unix.Unix_error _) -> up (Sys.getcwd ())

let git_rev () =
  let first_line path =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
        let line = try Some (input_line ic) with End_of_file -> None in
        close_in ic;
        line
  in
  match git_dir () with
  | None -> "unknown"
  | Some git -> (
      match first_line (Filename.concat git "HEAD") with
      | None -> "unknown"
      | Some head
        when String.length head >= 5 && String.sub head 0 5 = "ref: " -> (
          let r = String.trim (String.sub head 5 (String.length head - 5)) in
          match first_line (Filename.concat git r) with
          | Some sha -> String.trim sha
          | None -> (
              match open_in (Filename.concat git "packed-refs") with
              | exception Sys_error _ -> "unknown"
              | ic ->
                  let rec scan acc =
                    match input_line ic with
                    | exception End_of_file -> acc
                    | line ->
                        if
                          String.length line > 41
                          && line.[0] <> '#'
                          && line.[40] = ' '
                          && String.sub line 41 (String.length line - 41) = r
                        then scan (Some (String.sub line 0 40))
                        else scan acc
                  in
                  let found = scan None in
                  close_in ic;
                  (match found with Some sha -> sha | None -> "unknown")))
      | Some head -> String.trim head)

let write_results path sections_run =
  let sorted_obj rows =
    Obs.Json.obj (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)
  in
  let json =
    Obs.Json.obj
      [
        (* /9 drops the perf/* and solver-ablation/* series and the
           universal-service un-batched leg (unbatched-wait-free and
           summary.batched_speedup) with the code they measured; /8
           adds the obs-causal/* series (sampled causal tracing
           overhead on the universal service, target <=5%); /7 adds the
           tt/* series (transposition + no-good census grid); /6 adds
           the universal-service/* series (batched vs un-batched
           wait-free, plus the closed-loop load harness) and the
           profile/wait-free-metrics overhead pair; /5 switches the
           perf estimators from min-of-k to median-of-k, adds
           solver_nodes / explorer_states accounting to the perf and
           perf-par series, and adds the por/* reduction series; /4
           added shard_states / shard_imbalance / stripe_contention to
           the perf-par series; /3 added section_timings; /2 the
           provenance stamps; /1 fields unchanged. *)
        ("schema", Obs.Json.str "wfs-bench/9");
        ("generated_unix_time", Obs.Json.float (Unix.time ()));
        ("domains_used", Obs.Json.int (Domain.recommended_domain_count ()));
        ("git_rev", Obs.Json.str (git_rev ()));
        ("ocaml_version", Obs.Json.str Sys.ocaml_version);
        ( "sections",
          Obs.Json.list (List.map Obs.Json.str sections_run) );
        ( "ns_per_op",
          sorted_obj
            (List.map
               (fun (name, ns, r2) ->
                 ( name,
                   Obs.Json.obj
                     [ ("ns", Obs.Json.float ns); ("r2", Obs.Json.float r2) ]
                 ))
               !ols_rows) );
        ("series", sorted_obj !series_rows);
        ("section_timings", sorted_obj !section_timings);
        ("metrics", Obs.Metrics.snapshot ());
      ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string_pretty json);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.results written to %s@." path

(* ---------- bechamel plumbing ---------- *)

let benchmark_and_print tests =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | Some [] | None -> Float.nan
      in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols) in
      record_ns name estimate r2;
      Fmt.pr "  %-46s %12.0f ns/op   (r² %.3f)@." name estimate r2)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

let section title = Fmt.pr "@.=== %s ===@.@." title

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Median of [reps] wall-clock samples of [f].  The median resists
   outliers in both directions — a page-cache-warm fluke as much as a
   noisy neighbour — so the PR-over-PR series only moves when the
   workload does.  (The minimum, used through wfs-bench/4, tracks the
   fastest co-scheduling ever observed instead.) *)
let median_time ~reps f =
  let samples =
    Array.init reps (fun _ ->
        Gc.minor ();
        snd (time_once f))
  in
  Array.sort Float.compare samples;
  if reps land 1 = 1 then samples.(reps / 2)
  else (samples.((reps / 2) - 1) +. samples.(reps / 2)) /. 2.

let counter_now name =
  Option.value ~default:0 (Obs.Metrics.counter_value name)

(* ---------- F1.1: the hierarchy table ---------- *)

let fig_1_1 () =
  section "F1.1  Figure 1-1, regenerated with machine-checked evidence";
  let table, dt = time_once (fun () -> Table.generate ()) in
  Fmt.pr "%a@." Table.pp table;
  Fmt.pr "@.consistent with the paper: %b   (generated in %.2fs)@."
    (Table.consistent table) dt;
  record_series "fig1.1"
    (Obs.Json.obj
       [
         ("consistent", Obs.Json.bool (Table.consistent table));
         ("seconds", Obs.Json.float dt);
       ])

(* ---------- T2/T6/T11: impossibility proofs by the solver ---------- *)

let impossibility_proofs () =
  section "T2/T6/T11  bounded impossibility proofs (solver, exhaustive)";
  let prove ?max_nodes name inst =
    let (verdict, nodes), dt =
      time_once (fun () -> Solver.solve_with_stats ?max_nodes inst)
    in
    let verdict_str =
      match verdict with
      | Solver.Unsolvable -> "UNSOLVABLE"
      | Solver.Solvable _ -> "solvable"
      | Solver.Out_of_budget _ -> "budget!"
    in
    record_series ("impossibility/" ^ name)
      (Obs.Json.obj
         [
           ("verdict", Obs.Json.str verdict_str);
           ("nodes", Obs.Json.int nodes);
           ("seconds", Obs.Json.float dt);
         ]);
    Fmt.pr "  %-52s %-12s %9d nodes  %6.2fs@." name verdict_str nodes dt
  in
  let reg =
    Registers.atomic ~name:"r" ~init:(Value.int 0) [ Value.int 0; Value.int 1 ]
  in
  let queue =
    Queues.fifo ~name:"q"
      ~initial:[ Value.str "a"; Value.str "b" ]
      ~items:[ Value.str "a"; Value.str "b" ]
      ()
  in
  prove "Thm 2: register, n=2, ≤2 ops/proc" (Solver.of_spec ~n:2 ~depth:2 reg);
  prove "Thm 2: register, n=2, ≤3 ops/proc" (Solver.of_spec ~n:2 ~depth:3 reg);
  prove "Thm 6: test-and-set, n=3, ≤1 op/proc"
    (Solver.of_spec ~n:3 ~depth:1 (Registers.test_and_set ()));
  prove "Thm 6: test-and-set, n=3, ≤2 ops/proc"
    (Solver.of_spec ~n:3 ~depth:2 (Registers.test_and_set ()));
  prove "Thm 11: queue, n=3, ≤1 op/proc" (Solver.of_spec ~n:3 ~depth:1 queue);
  prove ~max_nodes:80_000_000 "Thm 11: queue, n=3, ≤2 ops/proc"
    (Solver.of_spec ~n:3 ~depth:2 queue);
  prove "DDS: fifo channel, n=2, ≤2 ops/proc"
    (Solver.of_spec ~n:2 ~depth:2
       (Channels.fifo_point_to_point ~name:"ch" ~processes:2
          ~messages:[ Value.pid 0; Value.pid 1 ] ()))

(* ---------- T4..T20: protocol verification cost (explorer) ---------- *)

let verification_benches () =
  section "T4/T7/T9/T12/T15/T16/T19  exhaustive protocol verification cost";
  let verify_test name protocol =
    Test.make ~name (Staged.stage (fun () -> Protocol.verify protocol))
  in
  benchmark_and_print
    (Test.make_grouped ~name:"verify"
       [
         verify_test "thm4-test-and-set-n2" (Rmw_consensus.test_and_set ());
         verify_test "thm4-fetch-and-add-n2" (Rmw_consensus.fetch_and_add ());
         verify_test "thm7-cas-n3" (Cas_consensus.protocol ~n:3 ());
         verify_test "thm9-queue-n2" (Queue_consensus.protocol ());
         verify_test "thm12-aug-queue-n3" (Aug_queue_consensus.protocol ~n:3 ());
         verify_test "thm15-move-n3" (Move_consensus.n_proc_protocol ~n:3 ());
         verify_test "thm16-mem-swap-n3" (Swap_consensus.protocol ~n:3 ());
         verify_test "thm19-assignment-n2" (Assign_consensus.protocol ~n:2 ());
         verify_test "thm20-two-phase-n2" (Assign_consensus.two_phase ~n:2 ());
       ])

(* ---------- T4/T7 on hardware: consensus primitives ---------- *)

let primitive_benches () =
  section "T4/T7-HW  runtime consensus and primitives (single domain)";
  let tas = Runtime.Primitives.Test_and_set.make () in
  let faa = Runtime.Primitives.Fetch_and_add.make 0 in
  let swap = Runtime.Primitives.Swap.make 0 in
  let cas = Runtime.Primitives.Cas.make 0 in
  benchmark_and_print
    (Test.make_grouped ~name:"primitive"
       [
         Test.make ~name:"test-and-set"
           (Staged.stage (fun () ->
                ignore (Runtime.Primitives.Test_and_set.test_and_set tas)));
         Test.make ~name:"fetch-and-add"
           (Staged.stage (fun () ->
                ignore (Runtime.Primitives.Fetch_and_add.fetch_and_add faa 1)));
         Test.make ~name:"swap"
           (Staged.stage (fun () ->
                ignore (Runtime.Primitives.Swap.swap swap 1)));
         Test.make ~name:"compare-and-swap"
           (Staged.stage (fun () ->
                ignore
                  (Runtime.Primitives.Cas.compare_and_swap cas ~expected:0
                     ~replacement:0)));
         Test.make ~name:"one-shot-consensus-decide"
           (Staged.stage (fun () ->
                let c = Runtime.Consensus.One_shot.make () in
                ignore (Runtime.Consensus.One_shot.decide c 1)));
         Test.make ~name:"tas-2-consensus-decide"
           (Staged.stage (fun () ->
                let c = Runtime.Consensus.Tas_two.make () in
                ignore (Runtime.Consensus.Tas_two.decide c ~pid:0 42)));
       ])

(* ---------- U3: fetch-and-cons implementations ---------- *)

let fac_benches () =
  section "U3  fetch-and-cons implementations (single domain, amortized)";
  benchmark_and_print
    (Test.make_grouped ~name:"fac"
       [
         Test.make_with_resource ~name:"cas-based" Test.multiple
           ~allocate:(fun () -> Runtime.Fetch_and_cons.Cas_based.make ())
           ~free:ignore
           (Staged.stage (fun t ->
                ignore (Runtime.Fetch_and_cons.Cas_based.fetch_and_cons t 1)));
         Test.make_with_resource ~name:"swap-based-O(1)" Test.multiple
           ~allocate:(fun () -> Runtime.Fetch_and_cons.Swap_based.make ())
           ~free:ignore
           (Staged.stage (fun t ->
                ignore
                  (Runtime.Fetch_and_cons.Swap_based.fetch_and_cons_cells t 1)));
       ]);
  (* the rounds-based construction needs distinct items and per-process
     handles; measure it by hand *)
  let n = 2 in
  let t =
    Runtime.Fetch_and_cons.Rounds.make ~n ~equal:(fun (a, b) (c, d) ->
        a = c && b = d)
  in
  let h = Runtime.Fetch_and_cons.Rounds.handle t ~pid:0 in
  let ops = 20_000 in
  let (), dt =
    time_once (fun () ->
        for i = 0 to ops - 1 do
          ignore (Runtime.Fetch_and_cons.Rounds.fetch_and_cons h (0, i))
        done)
  in
  Fmt.pr "  %-46s %12.0f ns/op   (hand-timed, %d ops)@."
    "fac/rounds-based-(Fig 4-5)"
    (dt /. float_of_int ops *. 1e9)
    ops;
  record_ns "fac/rounds-based-(Fig 4-5)"
    (dt /. float_of_int ops *. 1e9)
    Float.nan

(* ---------- U1: universal-object throughput ---------- *)

let universal_throughput () =
  section "U1  shared queue throughput, 4 domains (single-core timesharing)";
  let domains = 4 in
  let per_domain = 20_000 in
  let measure name enq deq =
    let (), dt =
      time_once (fun () ->
          ignore
            (Runtime.Primitives.run_domains domains (fun pid ->
                 for i = 0 to per_domain - 1 do
                   enq ((pid * per_domain) + i);
                   ignore (deq ())
                 done)))
    in
    let ops = 2 * domains * per_domain in
    record_series ("universal-throughput/" ^ name)
      (Obs.Json.obj
         [
           ("ops_per_ms", Obs.Json.float (float_of_int ops /. dt /. 1000.0));
           ("ops", Obs.Json.int ops);
           ("seconds", Obs.Json.float dt);
         ]);
    Fmt.pr "  %-42s %9.0f ops/ms   (%d ops in %.3fs)@." name
      (float_of_int ops /. dt /. 1000.0)
      ops dt
  in
  let module QU = Runtime.Universal.Lock_free (Runtime.Seq_objects.Queue_of_int) in
  let module QW = Runtime.Universal.Wait_free (Runtime.Seq_objects.Queue_of_int) in
  let module QL = Runtime.Universal.Locked (Runtime.Seq_objects.Queue_of_int) in
  let open Runtime.Seq_objects.Queue_of_int in
  let qu = QU.create () in
  measure "universal lock-free (this paper, from CAS)"
    (fun x -> ignore (QU.apply qu (Enq x)))
    (fun () -> QU.apply qu Deq);
  let qw = QW.create ~n:domains () in
  let pids = Atomic.make 0 in
  let pid_key = Domain.DLS.new_key (fun () -> Atomic.fetch_and_add pids 1 mod domains) in
  measure "universal wait-free (announce + helping)"
    (fun x -> ignore (QW.apply qw ~pid:(Domain.DLS.get pid_key) (Enq x)))
    (fun () -> QW.apply qw ~pid:(Domain.DLS.get pid_key) Deq);
  let ql = QL.create () in
  measure "mutex-guarded"
    (fun x -> ignore (QL.apply ql (Enq x)))
    (fun () -> QL.apply ql Deq);
  let ms = Runtime.Baselines.Michael_scott_queue.make () in
  measure "michael-scott (hand-crafted lock-free)"
    (fun x -> Runtime.Baselines.Michael_scott_queue.enqueue ms x)
    (fun () ->
      match Runtime.Baselines.Michael_scott_queue.dequeue ms with
      | Some x -> Deqd x
      | None -> Empty)

(* ---------- U1-SVC: universal object service ---------- *)

(* The batched wait-free construction (one consensus round threads
   every announced invocation) against the lock-free one on the same
   workload, its batch and truncation telemetry, and the closed-loop
   load harness behind [wfs load], which must pass its differential
   check with truncation active. *)
let universal_service () =
  section "U1-SVC  universal object service: batched wait-free vs lock-free";
  let domains = 4 in
  let per_domain = 10_000 in
  let total = domains * per_domain in
  let reps =
    match Sys.getenv_opt "WFS_PERF_REPS" with
    | Some s -> ( try max 1 (int_of_string s) with Failure _ -> 5)
    | None -> 5
  in
  let hist name =
    match List.assoc_opt name (Obs.Metrics.dump ()) with
    | Some (Obs.Metrics.D_histogram { d_count; d_sum; _ }) -> (d_count, d_sum)
    | _ -> (0, 0)
  in
  let module C = Runtime.Seq_objects.Counter in
  let module WB = Runtime.Universal.Wait_free (C) in
  let module LF = Runtime.Universal.Lock_free (C) in
  (* Each rep times the constructions back to back over fresh
     objects, metrics cold (this compares the constructions, not their
     instrumentation), and each construction's figure is the median of
     its reps.  Interleaving the reps — rather than timing all reps of
     one construction, then all of the next — exposes every
     construction to the same slow drift of the box (frequency
     scaling, background load), which otherwise dominates their
     ratio on a shared single-core machine. *)
  let time_rep apply =
    let t0 = Obs.Clock.now_ns () in
    ignore
      (Runtime.Primitives.run_domains domains (fun pid ->
           for _ = 1 to per_domain do
             apply ~pid
           done));
    float_of_int (Obs.Clock.now_ns () - t0) *. 1e-9
  in
  let names = [| "batched-wait-free"; "lock-free" |] in
  let fresh i =
    match i with
    | 0 ->
        let w = WB.create ~n:domains () in
        fun ~pid -> ignore (WB.apply w ~pid C.Incr)
    | _ ->
        let w = LF.create () in
        fun ~pid:_ -> ignore (LF.apply w C.Incr)
  in
  let times = Array.make_matrix 2 reps infinity in
  for rep = 0 to reps - 1 do
    for i = 0 to 1 do
      times.(i).(rep) <- time_rep (fresh i)
    done
  done;
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  Array.iteri
    (fun i name ->
      let dt = median times.(i) in
      let rate = float_of_int total /. dt /. 1000.0 in
      Fmt.pr
        "  %-42s %9.0f ops/ms   (%d ops in %.3fs, median of %d interleaved)@."
        name rate total dt reps;
      record_series
        ("universal-service/" ^ name)
        (Obs.Json.obj
           [
             ("ops_per_ms", Obs.Json.float rate);
             ("ops", Obs.Json.int total);
             ("seconds", Obs.Json.float dt);
             ("reps", Obs.Json.int reps);
           ]))
    names;
  (* batch-size / truncation telemetry from a short metrics-hot pass *)
  let wb = WB.create ~n:domains () in
  Obs.Metrics.with_hot (fun () ->
      let nodes0, riders0 = hist "universal_rt.wait_free.batch_size" in
      ignore
        (Runtime.Primitives.run_domains domains (fun pid ->
             for _ = 1 to 2_000 do
               ignore (WB.apply wb ~pid C.Incr)
             done));
      let nodes1, riders1 = hist "universal_rt.wait_free.batch_size" in
      let nodes = nodes1 - nodes0 in
      let avg_batch =
        if nodes = 0 then 1.0
        else float_of_int (riders1 - riders0) /. float_of_int nodes
      in
      Fmt.pr "  avg batch %.2f   retained %d (window %d)@." avg_batch
        (WB.retained wb) (WB.window wb);
      record_series "universal-service/summary"
        (Obs.Json.obj
           [
             ("avg_batch", Obs.Json.float avg_batch);
             ("retained", Obs.Json.int (WB.retained wb));
             ("window", Obs.Json.int (WB.window wb));
             ("watermark", Obs.Json.int (WB.watermark wb));
           ]));
  (* The full service path: closed-loop clients through the registry
     handle, differentially checked against the sequential fold. *)
  let r =
    Runtime.Service.Load.run ~seed:1 ~clients:domains
      ~ops_per_client:per_domain ()
  in
  Fmt.pr "  %a@." Runtime.Service.Load.pp_report r;
  record_series "universal-service/load-harness"
    (Obs.Json.obj
       [
         ("ops_per_ms", Obs.Json.float (r.Runtime.Service.Load.throughput /. 1000.));
         ("ops", Obs.Json.int r.Runtime.Service.Load.total_ops);
         ("lat_p50_ns", Obs.Json.int r.Runtime.Service.Load.lat_p50_ns);
         ("lat_p99_ns", Obs.Json.int r.Runtime.Service.Load.lat_p99_ns);
         ("max_retained", Obs.Json.int r.Runtime.Service.Load.max_retained);
         ("watermark", Obs.Json.int r.Runtime.Service.Load.final_watermark);
         ( "differential_ok",
           Obs.Json.bool (r.Runtime.Service.Load.differential_ok = Some true) );
         ("passed", Obs.Json.bool (Runtime.Service.Load.passed r));
       ])

(* ---------- T7 scaling series ---------- *)

let consensus_scaling () =
  section "T7-HW  one-shot CAS consensus, contending domains";
  List.iter
    (fun domains ->
      let rounds = 20_000 in
      let cells =
        Array.init rounds (fun _ -> Runtime.Consensus.One_shot.make ())
      in
      let (), dt =
        time_once (fun () ->
            ignore
              (Runtime.Primitives.run_domains domains (fun pid ->
                   for i = 0 to rounds - 1 do
                     ignore (Runtime.Consensus.One_shot.decide cells.(i) pid)
                   done)))
      in
      record_series
        (Fmt.str "consensus-scaling/%d-domains" domains)
        (Obs.Json.obj
           [
             ( "consensus_per_ms",
               Obs.Json.float (float_of_int rounds /. dt /. 1000.0) );
             ("instances", Obs.Json.int rounds);
           ]);
      Fmt.pr "  %d domains: %7.0f consensus/ms   (%d instances)@." domains
        (float_of_int rounds /. dt /. 1000.0)
        rounds)
    [ 1; 2; 4 ]

(* ---------- U2: replay-cost series ---------- *)

let replay_cost_series () =
  section
    "U2  replay cost of the k-th operation: plain log vs truncating (§4.1)";
  Fmt.pr "  %6s %18s %22s@." "k" "plain log (ops)" "truncating (ops, n=2)";
  let target = Collections.counter ~name:"c" () in
  List.iter
    (fun k ->
      (* plain: cost of k-th op = k-1 by construction; measure it *)
      let script = List.init k (fun _ -> Collections.incr) in
      let cfg = Log_universal.config ~target ~scripts:[| script |] in
      let outcome =
        Wfs_sim.Runner.run ~procs:cfg.Wfs_sim.Explorer.procs
          ~env:cfg.Wfs_sim.Explorer.env
          ~schedule:Wfs_sim.Scheduler.round_robin ()
      in
      let plain_cost =
        match List.rev outcome.Wfs_sim.Runner.trace with
        | last :: _ -> List.length (Value.as_list last.Wfs_sim.Runner.res)
        | [] -> 0
      in
      (* truncating: run the same script against a second process *)
      let outcome =
        Truncating_universal.run ~target
          ~scripts:[| script; [ Collections.incr ] |]
          ~schedule:Wfs_sim.Scheduler.round_robin ()
      in
      let trunc_max =
        List.fold_left
          (fun acc (_, d) ->
            match d with
            | Value.List entries ->
                List.fold_left
                  (fun acc e ->
                    max acc (Value.as_int (snd (Value.as_pair e))))
                  acc entries
            | _ -> acc)
          0 outcome.Wfs_sim.Runner.decisions
      in
      record_series
        (Fmt.str "replay-cost/k-%d" k)
        (Obs.Json.obj
           [
             ("plain_log_ops", Obs.Json.int plain_cost);
             ("truncating_ops", Obs.Json.int trunc_max);
           ]);
      Fmt.pr "  %6d %18d %22d@." k plain_cost trunc_max)
    [ 1; 2; 4; 8; 16; 32 ]

(* ---------- U4: consensus rounds per fetch-and-cons ---------- *)

let fac_rounds_series () =
  section "U4  consensus rounds per fetch-and-cons (Fig 4-5 bound: ≤ n+1)";
  List.iter
    (fun n ->
      let scripts =
        Array.init n (fun _ -> [ Queues.enq (Value.int 1) ])
      in
      let outcome =
        Consensus_fac.run ~scripts
          ~schedule:(Wfs_sim.Scheduler.random ~seed:42) ()
      in
      (* rounds used = number of decided consensus cells in the array *)
      let env = (Consensus_fac.config ~scripts).Wfs_sim.Explorer.env in
      ignore env;
      let cons_steps =
        List.length
          (List.filter
             (fun (s : Wfs_sim.Runner.step) -> String.equal s.Wfs_sim.Runner.obj "cons")
             outcome.Wfs_sim.Runner.trace)
      in
      record_series
        (Fmt.str "fac-rounds/n-%d" n)
        (Obs.Json.obj
           [
             ("consensus_ops", Obs.Json.int cons_steps);
             ("bound", Obs.Json.int (n * (n + 1)));
           ]);
      Fmt.pr
        "  n = %d: %2d consensus-object operations for %d operations (≤ %d \
         per op allowed)@."
        n cons_steps n (n + 1))
    [ 2; 3; 4 ]

(* ---------- U1-sim: exhaustive universal-construction checks ---------- *)

let universal_verification () =
  section "U1-sim  universal construction verified over all interleavings";
  let target = Queues.fifo ~name:"q" ~items:[ Value.int 1; Value.int 2 ] () in
  let scripts =
    [|
      [ Queues.enq (Value.int 1); Queues.deq ];
      [ Queues.enq (Value.int 2); Queues.deq ];
    |]
  in
  let v, dt = time_once (fun () -> Log_universal.verify ~target ~scripts ()) in
  Fmt.pr "  plain log:   ok=%b  %6d states  %5d terminals  (%.2fs)@."
    v.Log_universal.ok v.Log_universal.states v.Log_universal.terminals dt;
  let v, dt =
    time_once (fun () -> Truncating_universal.verify ~target ~scripts ())
  in
  Fmt.pr
    "  truncating:  ok=%b  %6d states  max replay %d (bound n=2)  (%.2fs)@."
    v.Truncating_universal.ok v.Truncating_universal.states
    v.Truncating_universal.max_replay dt;
  let v, dt =
    time_once (fun () ->
        Consensus_fac.verify
          ~scripts:[| [ Queues.enq (Value.int 1) ]; [ Queues.enq (Value.int 2) ] |]
          ())
  in
  Fmt.pr "  Fig 4-5 fac: ok=%b  %6d states  %5d terminals  (%.2fs)@."
    v.Consensus_fac.ok v.Consensus_fac.states v.Consensus_fac.terminals dt;
  (* Theorem 26 composed end to end: consensus -> fac -> queue *)
  let v, dt =
    time_once (fun () ->
        Composed.verify ~target
          ~scripts:[| [ Queues.enq (Value.int 1) ]; [ Queues.deq ] |]
          ())
  in
  Fmt.pr "  Thm 26 composed (consensus→fac→queue): ok=%b  %6d states  (%.2fs)@."
    v.Composed.ok v.Composed.states dt;
  record_series "universal-verify/thm26-composed"
    (Obs.Json.obj
       [
         ("ok", Obs.Json.bool v.Composed.ok);
         ("states", Obs.Json.int v.Composed.states);
         ("seconds", Obs.Json.float dt);
       ])

(* ---------- F1.1-census: the solver-only hierarchy ---------- *)

let census () =
  section
    "F1.1-census  consensus numbers measured by the solver alone \
     (bounded: n=2 ≤2 ops, n=3 ≤1 op; quantified over reachable inits)";
  let results, dt = time_once (fun () -> Census.run ~max_nodes:30_000_000 ()) in
  Fmt.pr "%a@." Census.pp results;
  Fmt.pr "  (census in %.1fs)@." dt;
  record_series "census" (Obs.Json.obj [ ("seconds", Obs.Json.float dt) ])

(* ---------- EXT-1: randomized consensus (§5) ---------- *)

let randomized_series () =
  section
    "EXT-1  randomized register consensus: abort probability and flips";
  Fmt.pr
    "  exhaustive safety: all schedules x all coin assignments x all inputs@.";
  List.iter
    (fun flips ->
      let v, dt =
        time_once (fun () -> Randomized.verify_all_coins ~flips ())
      in
      Fmt.pr
        "    flips=%d: ok=%b  %4d configurations  %7d states  aborts \
         possible=%b  (%.2fs)@."
        flips v.Randomized.ok v.Randomized.configurations
        v.Randomized.states v.Randomized.aborts_possible dt)
    [ 1; 2; 3 ];
  (* expected coin flips on hardware: conflicts resolve in O(1) expected *)
  let trials = 2_000 in
  let total_flips = ref 0 in
  let agreements = ref 0 in
  for trial = 1 to trials do
    let t = Runtime.Randomized.create () in
    let results =
      Runtime.Primitives.run_domains 2 (fun pid ->
          let rng = Random.State.make [| trial; pid; 77 |] in
          Runtime.Randomized.decide t ~pid ~rng (pid = 0))
    in
    match results with
    | [ (d0, f0); (d1, f1) ] ->
        total_flips := !total_flips + f0 + f1;
        if d0 = d1 then incr agreements
    | _ -> ()
  done;
  record_series "randomized/runtime"
    (Obs.Json.obj
       [
         ("trials", Obs.Json.int trials);
         ("agreements", Obs.Json.int !agreements);
         ( "mean_flips",
           Obs.Json.float (float_of_int !total_flips /. float_of_int trials) );
       ]);
  Fmt.pr
    "  runtime (opposite inputs, %d trials): agreement %d/%d, mean flips \
     per run %.2f@."
    trials !agreements trials
    (float_of_int !total_flips /. float_of_int trials)

(* ---------- PERF-PAR: multicore verification speedup curves ---------- *)

(* Largest domain count the curves exercise; the harness's [-j N] flag
   overrides it (CI's 2-core job passes [-j 2]). *)
let par_max_j = ref 8

let perf_par () =
  section
    "PERF-PAR  multicore verification: domain-pool speedup curves \
     (j = domains; j=1 is the sequential engine)";
  let max_j = max 1 !par_max_j in
  let js =
    let base = List.filter (fun j -> j <= max_j) [ 1; 2; 4; 8 ] in
    if List.mem max_j base then base else base @ [ max_j ]
  in
  (* Wall-clock curves need far fewer samples than the ns-level PERF
     pairs; cap the reps so the default run stays affordable. *)
  let reps =
    match Sys.getenv_opt "WFS_PERF_REPS" with
    | Some s -> ( try max 1 (min 3 (int_of_string s)) with Failure _ -> 3)
    | None -> 3
  in
  let census_budget =
    match Sys.getenv_opt "WFS_PAR_CENSUS_BUDGET" with
    | Some s -> ( try max 10_000 (int_of_string s) with Failure _ -> 1_000_000)
    | None -> 1_000_000
  in
  let best f = median_time ~reps f in
  (* Load-balance accounting around the timed reps: per-shard states
     claimed (from the pool.shard.states series the engines feed) and
     interner stripe try_lock contention, as before/after deltas. *)
  let shard_states j =
    List.init (max 1 j) (fun i ->
        Option.value ~default:0
          (Obs.Metrics.gauge_value
             (Obs.Metrics.labeled "pool.shard.states"
                [ ("shard", string_of_int i) ])))
  in
  let contention () =
    Option.value ~default:0 (Obs.Metrics.counter_value "intern.contention")
  in
  (* One speedup curve: run [work pool] at each j, j=1 without a pool
     (the untouched sequential path), and record seconds + speedup
     relative to j=1. *)
  let curve name work =
    let t1 = ref Float.nan in
    List.iter
      (fun j ->
        let with_p f =
          if j <= 1 then f None
          else Pool.with_pool ~domains:j (fun p -> f (Some p))
        in
        with_p (fun pool ->
            let run () = work pool in
            run () (* warm *);
            let states0 = shard_states j and cont0 = contention () in
            let nodes0 = counter_now "solver.nodes" in
            let explored0 = counter_now "explorer.states" in
            let t = best run in
            let per_rep c0 name = (counter_now name - c0) / reps in
            let nodes = per_rep nodes0 "solver.nodes" in
            let explored = per_rep explored0 "explorer.states" in
            let deltas =
              List.map2 (fun b a -> a - b) states0 (shard_states j)
            in
            let total = List.fold_left ( + ) 0 deltas in
            let mean =
              float_of_int total /. float_of_int (List.length deltas)
            in
            (* max/mean states per shard over the timed reps: 1.0 is a
               perfect split, j is one shard doing all the work *)
            let imbalance =
              if mean > 0. then float_of_int (List.fold_left max 0 deltas) /. mean
              else 1.
            in
            if j = 1 then t1 := t;
            let speedup = !t1 /. t in
            record_series
              (Fmt.str "perf-par/%s-j%d" name j)
              (Obs.Json.obj
                 [
                   ("seconds", Obs.Json.float t);
                   ("speedup_vs_j1", Obs.Json.float speedup);
                   ("domains", Obs.Json.int j);
                   ("reps", Obs.Json.int reps);
                   ("shard_states", Obs.Json.list (List.map Obs.Json.int deltas));
                   ("shard_imbalance", Obs.Json.float imbalance);
                   ("stripe_contention", Obs.Json.int (contention () - cont0));
                   ("solver_nodes", Obs.Json.int nodes);
                   ("explorer_states", Obs.Json.int explored);
                 ]);
            Fmt.pr
              "  %-28s j=%d  %8.3f s   speedup %5.2fx   imbalance %.2f@."
              name j t speedup imbalance))
      js
  in
  (* Registry-wide sharding: the solver-only census (the acceptance
     workload) and the Figure 1-1 evidence table. *)
  curve "census" (fun pool ->
      ignore (Census.run ~max_nodes:census_budget ?pool ()));
  curve "hierarchy" (fun pool -> ignore (Table.generate ?pool ()));
  (* Intra-exploration sharding: one big state space split across
     workers by schedule prefix.  The augmented queue at n = 5 is the
     largest exploration in the registry (~40k interned states). *)
  let aq5 = Aug_queue_consensus.protocol ~n:5 () in
  curve "explore-aug-queue-n5" (fun pool ->
      ignore (Protocol.verify ?pool aq5))

(* ---------- PERF-POR: partial-order reduction, same verdicts ---------- *)

let perf_por () =
  section
    "PERF-POR  partial-order reduction: search-size before/after at \
     identical verdicts (solver sleep-set cutoffs + explorer sleep sets)";
  let budget =
    match Sys.getenv_opt "WFS_POR_BUDGET" with
    | Some s -> ( try max 10_000 (int_of_string s) with Failure _ -> 2_000_000)
    | None -> 2_000_000
  in
  (* The acceptance workload: the full solver census, unreduced vs
     reduced, at the same node budget.  Verdicts, winning inits and the
     printed table must match row for row; only node counts change. *)
  let off, t_off = time_once (fun () -> Census.run ~max_nodes:budget ~por:false ()) in
  let on_, t_on = time_once (fun () -> Census.run ~max_nodes:budget ~por:true ()) in
  let outcome o = Fmt.str "%a" Census.pp_outcome o in
  let total_off = ref 0 and total_on = ref 0 in
  let all_match = ref true in
  List.iter2
    (fun (a : Census.measurement) (b : Census.measurement) ->
      let (o2a, n2a) = a.Census.two_proc and (o3a, n3a) = a.Census.three_proc in
      let (o2b, n2b) = b.Census.two_proc and (o3b, n3b) = b.Census.three_proc in
      let verdicts_match =
        outcome o2a = outcome o2b && outcome o3a = outcome o3b
        && Option.equal Value.equal a.Census.winning_init2 b.Census.winning_init2
        && Option.equal Value.equal a.Census.winning_init3 b.Census.winning_init3
      in
      (* At small budgets the unreduced search can hit the node cap
         where the reduced one concludes — a budget-boundary artifact,
         not a soundness difference (per-verdict results are identical
         whenever both searches complete).  Only an uncapped mismatch
         is alarming. *)
      let budget_capped =
        List.exists (fun o -> o = Census.Budget) [ o2a; o3a; o2b; o3b ]
      in
      if not (verdicts_match || budget_capped) then all_match := false;
      total_off := !total_off + n2a + n3a;
      total_on := !total_on + n2b + n3b;
      let reduction =
        if n2b + n3b > 0 then float_of_int (n2a + n3a) /. float_of_int (n2b + n3b)
        else 1.
      in
      record_series ("por/census/" ^ a.Census.object_name)
        (Obs.Json.obj
           [
             ("outcome2", Obs.Json.str (outcome o2b));
             ("outcome3", Obs.Json.str (outcome o3b));
             ("nodes2_nopor", Obs.Json.int n2a);
             ("nodes2_por", Obs.Json.int n2b);
             ("nodes3_nopor", Obs.Json.int n3a);
             ("nodes3_por", Obs.Json.int n3b);
             ("reduction", Obs.Json.float reduction);
             ("verdicts_match", Obs.Json.bool verdicts_match);
             ("budget_capped", Obs.Json.bool budget_capped);
           ]);
      Fmt.pr "  %-22s %-11s nodes %10d -> %10d  (%5.2fx)%s@."
        a.Census.object_name
        (outcome o2b ^ "/" ^ outcome o3b)
        (n2a + n3a) (n2b + n3b) reduction
        (if verdicts_match then ""
         else if budget_capped then "  (budget-capped; not comparable)"
         else "  VERDICT MISMATCH"))
    off on_;
  let total_reduction =
    if !total_on > 0 then float_of_int !total_off /. float_of_int !total_on
    else 1.
  in
  record_series "por/census-total"
    (Obs.Json.obj
       [
         ("budget", Obs.Json.int budget);
         ("nodes_nopor", Obs.Json.int !total_off);
         ("nodes_por", Obs.Json.int !total_on);
         ("reduction", Obs.Json.float total_reduction);
         ("seconds_nopor", Obs.Json.float t_off);
         ("seconds_por", Obs.Json.float t_on);
         ("verdicts_match", Obs.Json.bool !all_match);
       ]);
  Fmt.pr "  census total: %d -> %d solver nodes (%.2fx), %.1fs -> %.1fs, \
          verdicts %s@."
    !total_off !total_on total_reduction t_off t_on
    (if !all_match then "identical (where both searches complete)"
     else "MISMATCH");
  (* Explorer side: sleep-set pruning on the protocol verifications.
     [explorer.por.pruned] counts edges never generated; all states are
     still visited, so the stats structs stay byte-identical (the
     engine.por suite asserts that — here we record the rates). *)
  let pruned () =
    Option.value ~default:0 (Obs.Metrics.counter_value "explorer.por.pruned")
  in
  let explore name protocol =
    let r_off, t0 = time_once (fun () -> Protocol.verify ~por:false protocol) in
    let p0 = pruned () in
    let r_on, t1 = time_once (fun () -> Protocol.verify protocol) in
    let edges_pruned = pruned () - p0 in
    let same = r_off.Protocol.states = r_on.Protocol.states in
    record_series ("por/explore/" ^ name)
      (Obs.Json.obj
         [
           ("states", Obs.Json.int r_on.Protocol.states);
           ("edges_pruned", Obs.Json.int edges_pruned);
           ("seconds_nopor", Obs.Json.float t0);
           ("seconds_por", Obs.Json.float t1);
           ("states_match", Obs.Json.bool same);
         ]);
    Fmt.pr "  explore %-22s states %8d  pruned edges %8d  %.2fs -> %.2fs%s@."
      name r_on.Protocol.states edges_pruned t0 t1
      (if same then "" else "  STATE-COUNT MISMATCH")
  in
  explore "cas-n3" (Cas_consensus.protocol ~n:3 ());
  explore "mem-swap-n3" (Swap_consensus.protocol ~n:3 ());
  explore "aug-queue-n4" (Aug_queue_consensus.protocol ~n:4 ())

(* ---------- PERF-TT: transposition caching + no-good learning ---------- *)

let perf_tt () =
  section
    "PERF-TT  transposition table + σ-footprint no-good learning: census \
     node counts across the {por, tt} grid at identical verdicts";
  let budget =
    match Sys.getenv_opt "WFS_TT_BUDGET" with
    | Some s -> ( try max 10_000 (int_of_string s) with Failure _ -> 2_000_000)
    | None -> 2_000_000
  in
  let tt_counters () =
    ( counter_now "solver.tt.hits",
      counter_now "solver.tt.misses",
      counter_now "solver.tt.footprint_rejects",
      counter_now "solver.tt.backjumps" )
  in
  let run ~por ~tt =
    let h0, m0, r0, b0 = tt_counters () in
    let ms, dt =
      time_once (fun () -> Census.run ~max_nodes:budget ~por ~tt ())
    in
    let h1, m1, r1, b1 = tt_counters () in
    (ms, dt, (h1 - h0, m1 - m0, r1 - r0, b1 - b0))
  in
  let total ms =
    List.fold_left
      (fun acc (m : Census.measurement) ->
        acc + snd m.Census.two_proc + snd m.Census.three_proc)
      0 ms
  in
  let outcome o = Fmt.str "%a" Census.pp_outcome o in
  (* Verdict identity vs the chronological baseline, with the same
     budget-boundary caveat as PERF-POR: a search that concludes under
     the cap where a bigger one ran out is a budget artifact, not a
     soundness difference. *)
  let verdicts_vs_baseline base ms =
    List.for_all2
      (fun (a : Census.measurement) (b : Census.measurement) ->
        let o2a, _ = a.Census.two_proc and o3a, _ = a.Census.three_proc in
        let o2b, _ = b.Census.two_proc and o3b, _ = b.Census.three_proc in
        let same =
          outcome o2a = outcome o2b
          && outcome o3a = outcome o3b
          && Option.equal Value.equal a.Census.winning_init2
               b.Census.winning_init2
          && Option.equal Value.equal a.Census.winning_init3
               b.Census.winning_init3
        in
        let capped =
          List.exists (fun o -> o = Census.Budget) [ o2a; o3a; o2b; o3b ]
        in
        same || capped)
      base ms
  in
  let base, t_base, _ = run ~por:false ~tt:false in
  let n_base = total base in
  let grid =
    List.map
      (fun (name, por, tt) ->
        let ms, dt, deltas = run ~por ~tt in
        (name, ms, dt, deltas))
      [ ("por", true, false); ("tt", false, true); ("por+tt", true, true) ]
  in
  Fmt.pr "  %-10s %12s %8s %9s  verdicts@." "combo" "nodes" "sec"
    "reduction";
  Fmt.pr "  %-10s %12d %8.1f %8.2fx  -@." "baseline" n_base t_base 1.0;
  record_series "tt/census/baseline"
    (Obs.Json.obj
       [
         ("nodes", Obs.Json.int n_base);
         ("seconds", Obs.Json.float t_base);
       ]);
  let all_match = ref true in
  List.iter
    (fun (name, ms, dt, (h, m, r, b)) ->
      let n = total ms in
      let ok = verdicts_vs_baseline base ms in
      if not ok then all_match := false;
      let reduction =
        if n > 0 then float_of_int n_base /. float_of_int n else 1.
      in
      let hit_rate =
        if h + m > 0 then float_of_int h /. float_of_int (h + m) else 0.
      in
      record_series ("tt/census/" ^ name)
        (Obs.Json.obj
           [
             ("nodes", Obs.Json.int n);
             ("seconds", Obs.Json.float dt);
             ("reduction", Obs.Json.float reduction);
             ("verdicts_match", Obs.Json.bool ok);
             ("tt_hits", Obs.Json.int h);
             ("tt_misses", Obs.Json.int m);
             ("tt_hit_rate", Obs.Json.float hit_rate);
             ("tt_footprint_rejects", Obs.Json.int r);
             ("tt_backjumps", Obs.Json.int b);
           ]);
      Fmt.pr "  %-10s %12d %8.1f %8.2fx  %s%s@." name n dt reduction
        (if ok then "identical (where both searches complete)"
         else "MISMATCH")
        (if h + m > 0 then
           Fmt.str "  [tt hit %.1f%%, rejects %d, backjumps %d]"
             (hit_rate *. 100.) r b
         else ""))
    grid;
  (* Per-object breakdown of the headline comparison (por vs por+tt):
     this is where the dominant conclusive rows — n-assignment n=3
     above all — show the learning paying off. *)
  (match
     ( List.find_opt (fun (n, _, _, _) -> n = "por") grid,
       List.find_opt (fun (n, _, _, _) -> n = "por+tt") grid )
   with
  | Some (_, por_ms, _, _), Some (_, both_ms, _, _) ->
      List.iter2
        (fun (a : Census.measurement) (b : Census.measurement) ->
          let na = snd a.Census.two_proc + snd a.Census.three_proc in
          let nb = snd b.Census.two_proc + snd b.Census.three_proc in
          let reduction =
            if nb > 0 then float_of_int na /. float_of_int nb else 1.
          in
          record_series ("tt/census-row/" ^ a.Census.object_name)
            (Obs.Json.obj
               [
                 ("nodes_por", Obs.Json.int na);
                 ("nodes_por_tt", Obs.Json.int nb);
                 ("reduction", Obs.Json.float reduction);
               ]);
          Fmt.pr "  row %-22s nodes %10d -> %10d  (%5.2fx)@."
            a.Census.object_name na nb reduction)
        por_ms both_ms
  | _ -> ());
  record_series "tt/census-grid"
    (Obs.Json.obj
       [
         ("budget", Obs.Json.int budget);
         ("verdicts_match", Obs.Json.bool !all_match);
       ]);
  Fmt.pr "  verdicts across the grid: %s@."
    (if !all_match then "identical (where both searches complete)"
     else "MISMATCH")

(* ---------- EXT-2: Lamport 1P/1C queue (§3.3) ---------- *)

let lamport_queue_bench () =
  section "EXT-2  Lamport 1P/1C queue (registers only) vs CAS-based queues";
  let items = 200_000 in
  let run_1p1c name enq deq =
    let (), dt =
      time_once (fun () ->
          ignore
            (Runtime.Primitives.run_domains 2 (fun pid ->
                 if pid = 0 then begin
                   let sent = ref 0 in
                   while !sent < items do
                     if enq !sent then incr sent else Domain.cpu_relax ()
                   done
                 end
                 else begin
                   let got = ref 0 in
                   while !got < items do
                     match deq () with
                     | Some _ -> incr got
                     | None -> Domain.cpu_relax ()
                   done
                 end)))
    in
    record_series ("lamport/" ^ name)
      (Obs.Json.obj
         [
           ( "transfers_per_ms",
             Obs.Json.float (float_of_int items /. dt /. 1000.0) );
           ("items", Obs.Json.int items);
         ]);
    Fmt.pr "  %-44s %8.0f transfers/ms@." name
      (float_of_int items /. dt /. 1000.0)
  in
  let lq = Runtime.Lamport_queue.create ~capacity:1024 in
  run_1p1c "lamport ring (read/write registers only)"
    (fun x -> Runtime.Lamport_queue.enqueue lq x)
    (fun () -> Runtime.Lamport_queue.dequeue lq);
  let ms = Runtime.Baselines.Michael_scott_queue.make () in
  run_1p1c "michael-scott (CAS)"
    (fun x ->
      Runtime.Baselines.Michael_scott_queue.enqueue ms x;
      true)
    (fun () -> Runtime.Baselines.Michael_scott_queue.dequeue ms);
  Fmt.pr
    "  (the register-only queue is legal here because there is exactly@.\
  \   one enqueuer and one dequeuer — the boundary drawn by §3.3)@."

(* ---------- FAULT: the crash-stop adversary, sim and runtime ----------

   Sim side: verification cost and verdict under a crash budget — the
   state space grows (every placement of up to k halts is explored), and
   every sound registry protocol must keep passing, while the naive
   register protocol must fail with a crash-bearing schedule.  Runtime
   side: halt k of n domains mid-operation against the wait-free
   universal queue; survivors must complete and the recorded history
   (crashed operations left pending) must linearize. *)

let fault_bench () =
  section "FAULT  crash-stop adversary: sim crash budgets + runtime halts";
  List.iter
    (fun (key, n, crashes) ->
      match (Registry.find key).Registry.build ~n with
      | None -> ()
      | Some p ->
          let report, dt =
            time_once (fun () -> Protocol.verify ~crashes p)
          in
          let name = Fmt.str "fault/verify/%s-n%d-c%d" key n crashes in
          record_series name
            (Obs.Json.obj
               [
                 ("ms", Obs.Json.float (dt *. 1e3));
                 ("states", Obs.Json.int report.Protocol.states);
                 ("crashes", Obs.Json.int crashes);
                 ("passed", Obs.Json.bool (Protocol.passed report));
               ]);
          Fmt.pr "  %-44s %8.1f ms %8d states  passed=%b@." name (dt *. 1e3)
            report.Protocol.states
            (Protocol.passed report))
    [
      ("cas", 2, 1); ("cas", 3, 2); ("test-and-set", 2, 1);
      ("queue", 2, 1); ("fetch-and-add", 2, 1);
    ];
  (* the impossibility side: the naive register protocol must fail, and
     the extracted schedule should exercise a crash *)
  (match (Registry.find "register-naive").Registry.build ~n:3 with
  | None -> ()
  | Some p ->
      let v, dt = time_once (fun () -> Protocol.find_violation ~crashes:1 p) in
      let crashing =
        match v with
        | Some v ->
            List.exists
              (function Protocol.Crash _ -> true | Protocol.Step _ -> false)
              v.Protocol.schedule
        | None -> false
      in
      record_series "fault/counterexample/register-naive-n3-c1"
        (Obs.Json.obj
           [
             ("ms", Obs.Json.float (dt *. 1e3));
             ("found", Obs.Json.bool (v <> None));
             ("schedule_has_crash", Obs.Json.bool crashing);
           ]);
      Fmt.pr "  %-44s %8.1f ms  found=%b crash-in-schedule=%b@."
        "fault/counterexample/register-naive-n3-c1" (dt *. 1e3) (v <> None)
        crashing);
  List.iter
    (fun (n, halts) ->
      let s, dt =
        time_once (fun () -> Runtime.Fault.stress_queue ~n ~halts ())
      in
      let name = Fmt.str "fault/stress/n%d-h%d" n halts in
      record_series name
        (Obs.Json.obj
           [
             ("ms", Obs.Json.float (dt *. 1e3));
             ("survivor_ops", Obs.Json.int s.Runtime.Fault.survivor_ops);
             ("crashed_ops", Obs.Json.int s.Runtime.Fault.crashed_ops);
             ("passed", Obs.Json.bool (Runtime.Fault.stress_passed s));
           ]);
      Fmt.pr "  %-44s %8.1f ms  crashed-ops=%d passed=%b@." name (dt *. 1e3)
        s.Runtime.Fault.crashed_ops
        (Runtime.Fault.stress_passed s))
    [ (2, 1); (4, 1); (4, 2); (4, 3) ]

(* ---------- profile: span profiler overhead ----------

   The Profile contract (DESIGN 5.9): one predictable branch when
   disabled, <= 5% on an exploration workload when enabled.  Three
   measurements pin it down:

     profile/overhead          Protocol.verify aug-queue n=4, profiling
                               off vs enabled (coarse spans: shards,
                               solver verdicts)
     profile/recorder-op       recorder-dense loop — rt.op spans at the
                               recorder's 1-in-64 sampling rate, the
                               fine-grained worst case
     profile/disabled-span-ns  Profile.span around a trivial thunk vs
                               the bare thunk, per call, profiler off

   The profiler is disabled and its rings reset before the section
   returns so later sections (and write_results) see a quiet state. *)

let profile_overhead () =
  section "PROFILE  span profiler overhead: off vs enabled (target <=5%)";
  let reps =
    match Sys.getenv_opt "WFS_PERF_REPS" with
    | Some s -> ( try max 1 (int_of_string s) with Failure _ -> 5)
    | None -> 5
  in
  let best ~iters f =
    ignore (f ());
    let t = ref infinity in
    for _ = 1 to reps do
      Gc.minor ();
      let (), dt =
        time_once (fun () ->
            for _ = 1 to iters do
              ignore (f ())
            done)
      in
      let per_call = dt /. float_of_int iters in
      if per_call < !t then t := per_call
    done;
    !t
  in
  let measure_pair name ~iters work =
    let off = best ~iters work in
    Obs.Profile.enable ();
    let on_ = best ~iters work in
    Obs.Profile.disable ();
    Obs.Profile.reset ();
    let pct = if off > 0. then (on_ -. off) /. off *. 100. else 0. in
    (off, on_, pct, name)
  in
  (* Exploration workload: spans here are coarse (per shard, per solver
     verdict), so the enabled tax must stay well inside the 5% budget. *)
  let aq4 = Aug_queue_consensus.protocol ~n:4 () in
  let off, on_, pct, _ =
    measure_pair "verify-aug-queue-n4" ~iters:1 (fun () ->
        Protocol.verify aq4)
  in
  record_series "profile/overhead"
    (Obs.Json.obj
       [
         ("off_seconds", Obs.Json.float off);
         ("on_seconds", Obs.Json.float on_);
         ("overhead_pct", Obs.Json.float pct);
         ("reps", Obs.Json.int reps);
       ]);
  Fmt.pr "  %-34s off %9.2f ms   on %9.2f ms   overhead %+5.1f%%@."
    "verify-aug-queue-n4" (off *. 1e3) (on_ *. 1e3) pct;
  (* Recorder-dense workload: with profiling enabled the recorder opens
     an rt.op span for 1 op in 64 (sampled — a span per op multiplied
     sub-microsecond ops several-fold), so this measures the amortized
     enabled cost in its least flattering setting (ops that do almost
     nothing). *)
  let ops = 20_000 in
  let off, on_, pct, _ =
    measure_pair "recorder-op" ~iters:1 (fun () ->
        let r = Runtime.Recorder.create ~capacity:(2 * ops) in
        for pid = 0 to ops - 1 do
          ignore
            (Runtime.Recorder.around r ~pid:(pid land 7) ~obj:"q"
               ~op:Queues.deq ~encode_res:Value.int (fun () -> 0))
        done)
  in
  record_series "profile/recorder-op"
    (Obs.Json.obj
       [
         ("off_ns_per_op", Obs.Json.float (off /. float_of_int ops *. 1e9));
         ("on_ns_per_op", Obs.Json.float (on_ /. float_of_int ops *. 1e9));
         ("overhead_pct", Obs.Json.float pct);
         ("ops", Obs.Json.int ops);
         ("reps", Obs.Json.int reps);
       ]);
  Fmt.pr "  %-34s off %9.1f ns/op on %9.1f ns/op overhead %+5.1f%%@."
    "recorder-op"
    (off /. float_of_int ops *. 1e9)
    (on_ /. float_of_int ops *. 1e9)
    pct;
  (* Disabled micro-cost: Profile.span around a trivial thunk vs the
     bare thunk.  The delta is the price every instrumented seam pays
     when nobody is profiling — it should be a branch, i.e. ~0 ns. *)
  let iters = 2_000_000 in
  let sink = ref 0 in
  let thunk () = incr sink in
  let bare = best ~iters (fun () -> thunk ()) in
  let spanned = best ~iters (fun () -> Obs.Profile.span "bench.noop" thunk) in
  let delta_ns = (spanned -. bare) *. 1e9 in
  record_series "profile/disabled-span-ns"
    (Obs.Json.obj
       [
         ("bare_ns", Obs.Json.float (bare *. 1e9));
         ("span_ns", Obs.Json.float (spanned *. 1e9));
         ("delta_ns", Obs.Json.float delta_ns);
         ("iters_per_rep", Obs.Json.int iters);
         ("reps", Obs.Json.int reps);
       ]);
  Fmt.pr "  %-34s bare %8.2f ns   span %8.2f ns   delta %+6.2f ns@."
    "disabled-span" (bare *. 1e9) (spanned *. 1e9) delta_ns;
  (* Metrics-hot tax on the wait-free apply path (target <=5%): the
     batched construction's per-op instrumentation — the ops counter,
     help-round and batch-size histograms, log-length gauge — measured
     cold vs hot on the same single-domain workload. *)
  let module WC = Runtime.Universal.Wait_free (Runtime.Seq_objects.Counter) in
  (* ~10ms per timed window: small enough to keep the section quick,
     large enough that a scheduler blip on the shared box doesn't
     swallow the few-percent signal *)
  let wf_ops = 100_000 in
  let wf_run () =
    let w = WC.create ~n:1 () in
    for _ = 1 to wf_ops do
      ignore (WC.apply w ~pid:0 Runtime.Seq_objects.Counter.Incr)
    done
  in
  let was_hot = Obs.Metrics.hot () in
  (* interleaved min-of-reps — each rep times metrics-off and
     metrics-on back to back, so both sides face the same machine
     drift; sequential off-block-then-on-block measurement let a slow
     phase of the shared box masquerade as tens of percent of
     (anti-)overhead *)
  Obs.Metrics.set_hot false;
  wf_run ();
  Obs.Metrics.set_hot true;
  wf_run ();
  let off = ref infinity and on_ = ref infinity in
  let timed hot =
    Obs.Metrics.set_hot hot;
    Gc.minor ();
    let (), dt = time_once wf_run in
    let cell = if hot then on_ else off in
    if dt < !cell then cell := dt
  in
  (* alternate the within-pair order rep to rep: the second run of a
     pair tends to be faster (warmer caches), and a fixed order would
     book that as (anti-)overhead *)
  for rep = 1 to reps do
    if rep land 1 = 0 then begin
      timed false;
      timed true
    end
    else begin
      timed true;
      timed false
    end
  done;
  Obs.Metrics.set_hot was_hot;
  let off = !off and on_ = !on_ in
  let pct = if off > 0. then (on_ -. off) /. off *. 100. else 0. in
  record_series "profile/wait-free-metrics"
    (Obs.Json.obj
       [
         ("off_ns_per_op", Obs.Json.float (off /. float_of_int wf_ops *. 1e9));
         ("on_ns_per_op", Obs.Json.float (on_ /. float_of_int wf_ops *. 1e9));
         ("overhead_pct", Obs.Json.float pct);
         ("ops", Obs.Json.int wf_ops);
         ("reps", Obs.Json.int reps);
       ]);
  Fmt.pr "  %-34s off %9.1f ns/op on %9.1f ns/op overhead %+5.1f%%@."
    "wait-free-apply-metrics"
    (off /. float_of_int wf_ops *. 1e9)
    (on_ /. float_of_int wf_ops *. 1e9)
    pct

(* ---------- obs-causal: sampled causal tracing overhead ----------

   The Causal contract (ISSUE 10): 1-in-64 sampled tracing on the
   universal-service hot path costs <= 5%.  Same discipline as
   profile/wait-free-metrics: interleaved min-of-reps with the
   within-pair order alternated rep to rep, so machine drift and cache
   warmth cancel instead of masquerading as (anti-)overhead.  The help
   canary stays off — it deliberately parks invocations, so it belongs
   to trace-quality runs, not to the overhead budget. *)

let obs_causal () =
  section "OBS-CAUSAL  sampled causal tracing: off vs on (target <=5%)";
  let reps =
    match Sys.getenv_opt "WFS_PERF_REPS" with
    | Some s -> ( try max 1 (int_of_string s) with Failure _ -> 5)
    | None -> 5
  in
  let module WC = Runtime.Universal.Wait_free (Runtime.Seq_objects.Counter) in
  let ops = 100_000 in
  let run () =
    let w = WC.create ~label:"bench-counter" ~n:1 () in
    for _ = 1 to ops do
      ignore (WC.apply w ~pid:0 Runtime.Seq_objects.Counter.Incr)
    done
  in
  let set_traced t =
    if t then Obs.Causal.enable ~sample:64 ()
    else begin
      Obs.Causal.disable ();
      Obs.Causal.reset ()
    end
  in
  (* warm both modes before timing anything *)
  set_traced false;
  run ();
  set_traced true;
  run ();
  let off = ref infinity and on_ = ref infinity in
  let timed traced =
    set_traced traced;
    Gc.minor ();
    let (), dt = time_once run in
    let cell = if traced then on_ else off in
    if dt < !cell then cell := dt
  in
  for rep = 1 to reps do
    if rep land 1 = 0 then begin
      timed false;
      timed true
    end
    else begin
      timed true;
      timed false
    end
  done;
  set_traced false;
  let off = !off and on_ = !on_ in
  let pct = if off > 0. then (on_ -. off) /. off *. 100. else 0. in
  record_series "obs-causal/universal-service"
    (Obs.Json.obj
       [
         ("off_ns_per_op", Obs.Json.float (off /. float_of_int ops *. 1e9));
         ("on_ns_per_op", Obs.Json.float (on_ /. float_of_int ops *. 1e9));
         ("overhead_pct", Obs.Json.float pct);
         ("sample_every", Obs.Json.int 64);
         ("ops", Obs.Json.int ops);
         ("reps", Obs.Json.int reps);
         ("budget_ok", Obs.Json.bool (pct <= 5.0));
       ]);
  Fmt.pr "  %-34s off %9.1f ns/op on %9.1f ns/op overhead %+5.1f%%@."
    "universal-apply-traced"
    (off /. float_of_int ops *. 1e9)
    (on_ /. float_of_int ops *. 1e9)
    pct

(* ---------- entry point ----------

   With no arguments every section runs; positional arguments select a
   subset (useful in CI and when iterating on one construction).  Either
   way the harness finishes by writing BENCH_results.json. *)

let sections : (string * (unit -> unit)) list =
  [
    ("fig1.1", fig_1_1);
    ("impossibility", impossibility_proofs);
    ("verify", verification_benches);
    ("primitives", primitive_benches);
    ("fac", fac_benches);
    ("universal-throughput", universal_throughput);
    ("universal-service", universal_service);
    ("consensus-scaling", consensus_scaling);
    ("replay-cost", replay_cost_series);
    ("fac-rounds", fac_rounds_series);
    ("universal-verify", universal_verification);
    ("census", census);
    ("randomized", randomized_series);
    ("lamport", lamport_queue_bench);
    ("fault", fault_bench);
    ("perf-par", perf_par);
    ("perf-por", perf_por);
    ("perf-tt", perf_tt);
    ("profile", profile_overhead);
    ("obs-causal", obs_causal);
  ]

let () =
  let argv =
    match Array.to_list Sys.argv with [] -> [] | _ :: rest -> rest
  in
  (* [-j N] caps the domain counts the perf-par curves exercise. *)
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "-j" :: [] ->
        Fmt.epr "-j expects a domain count@.";
        exit 2
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
            par_max_j := v;
            parse_args acc rest
        | Some _ | None ->
            Fmt.epr "-j expects a positive integer (got %s)@." n;
            exit 2)
    | s :: rest -> parse_args (s :: acc) rest
  in
  let requested = parse_args [] argv in
  let unknown =
    List.filter (fun s -> not (List.mem_assoc s sections)) requested
  in
  if unknown <> [] then begin
    Fmt.epr "unknown section(s): %a@.available: %a@."
      Fmt.(list ~sep:comma string)
      unknown
      Fmt.(list ~sep:comma string)
      (List.map fst sections);
    exit 2
  end;
  let to_run =
    if requested = [] then sections
    else List.filter (fun (name, _) -> List.mem name requested) sections
  in
  Fmt.pr
    "wfs benchmark harness — reproducing Herlihy (PODC 1988)@.\
     hardware note: %d CPU core(s) visible; multi-domain numbers are@.\
     interleaved concurrency, not parallel speedup.@."
    (Domain.recommended_domain_count ());
  List.iter
    (fun (name, run) ->
      let started_ns = Obs.Clock.now_ns () in
      let (), dt = time_once run in
      section_timings :=
        ( name,
          Obs.Json.obj
            [
              ("seconds", Obs.Json.float dt);
              ("started_ns", Obs.Json.int started_ns);
            ] )
        :: !section_timings)
    to_run;
  write_results "BENCH_results.json" (List.map fst to_run);
  Fmt.pr "@.done.@."
