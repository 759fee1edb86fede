(* The domain pool and everything built on it.

   Unit tests pin down the pool's contract (index-ordered deterministic
   join, heaviest-first dispatch, lowest-index exception, inline nested
   calls, reuse, shutdown discipline) and the sharded interner's
   claim-bit semantics.  The [engine.parallel] differential suite then
   checks the determinism guarantee end to end: every registry protocol
   explored with a 2- and a 4-domain pool reports exactly what the
   sequential engine reports, and the census / hierarchy table print
   identically when sharded. *)

open Wfs_spec
open Wfs_sim
open Wfs_consensus
open Wfs_hierarchy

let value = Alcotest.testable Value.pp Value.equal

(* --- pool unit tests --- *)

let test_map_order () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          Alcotest.(check int)
            (Fmt.str "size clamps to >= 1 (domains=%d)" domains)
            (max 1 domains) (Pool.size pool);
          let input = Array.init 100 Fun.id in
          let out = Pool.parallel_map pool (fun x -> (x * x) + 1) input in
          Alcotest.(check (array int))
            (Fmt.str "parallel_map = Array.map (domains=%d)" domains)
            (Array.map (fun x -> (x * x) + 1) input)
            out;
          Alcotest.(check (array int))
            (Fmt.str "empty batch (domains=%d)" domains)
            [||]
            (Pool.parallel_map pool (fun x -> x) [||])))
    [ 1; 2; 4 ]

(* Heaviest-first issue, plan-order results; with no pool the jobs run
   on the caller in plan order. *)
let test_map_heaviest_first () =
  let jobs = [| 3.; 9.; 1.; 9.; 0.; 5. |] in
  let expect = Array.map (fun w -> w *. 2.) jobs in
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check (array (float 0.)))
        "pooled results in plan order" expect
        (Pool.map_heaviest_first (Some pool) ~weight:Fun.id
           (fun w -> w *. 2.)
           jobs));
  let ran = ref [] in
  Alcotest.(check (array (float 0.)))
    "no pool: same results" expect
    (Pool.map_heaviest_first None ~weight:Fun.id
       (fun w ->
         ran := w :: !ran;
         w *. 2.)
       jobs);
  Alcotest.(check (list (float 0.)))
    "no pool: plan order" (Array.to_list jobs) (List.rev !ran)

(* Dispatch order: under a 2-domain pool the heaviest job must be among
   the first [Pool.size] jobs to start, whatever the plan order.  Each
   job stamps its start rank from a shared counter, then spins in
   proportion to its weight so a member cannot race through several
   light jobs while another is between claiming a job and stamping it. *)
let test_heaviest_starts_first () =
  let weights = [| 3; 8; 1; 6; 2; 7; 5; 4 |] in
  let started = Atomic.make 0 in
  let rank = Array.make (Array.length weights) (-1) in
  Pool.with_pool ~domains:2 (fun pool ->
      ignore
        (Pool.map_heaviest_first (Some pool) ~weight:float_of_int
           (fun w ->
             rank.(w - 1) <- Atomic.fetch_and_add started 1;
             let acc = ref 0 in
             for i = 1 to w * 200_000 do
               acc := Sys.opaque_identity (!acc + i)
             done;
             !acc)
           weights);
      Alcotest.(check bool)
        (Fmt.str "heaviest job started among the first %d (rank %d of %d)"
           (Pool.size pool) rank.(7) (Array.length weights))
        true
        (rank.(7) < Pool.size pool))

exception Boom of int

let test_exception_lowest_index () =
  Pool.with_pool ~domains:4 (fun pool ->
      let input = Array.init 64 Fun.id in
      match
        Pool.parallel_map pool
          (fun i -> if i mod 10 = 3 then raise (Boom i) else i)
          input
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          Alcotest.(check int) "lowest-indexed failure wins" 3 i)

let test_reuse_across_batches () =
  Pool.with_pool ~domains:2 (fun pool ->
      for round = 1 to 5 do
        let out =
          Pool.parallel_map pool (fun x -> x * round) (Array.init 20 Fun.id)
        in
        Alcotest.(check (array int))
          (Fmt.str "round %d" round)
          (Array.init 20 (fun x -> x * round))
          out
      done)

let test_nested_runs_inline () =
  Pool.with_pool ~domains:2 (fun pool ->
      let out =
        Pool.parallel_map pool
          (fun i ->
            (* a job issuing its own batch must not deadlock on the
               pool's workers: it runs inline *)
            Array.fold_left ( + ) 0
              (Pool.parallel_map pool (fun j -> (i * 10) + j)
                 (Array.init 3 Fun.id)))
          (Array.init 8 Fun.id)
      in
      Alcotest.(check (array int))
        "nested parallel_map"
        (Array.init 8 (fun i -> (i * 30) + 3))
        out)

let test_shutdown () =
  let pool = Pool.create ~domains:2 () in
  ignore (Pool.parallel_map pool Fun.id [| 1; 2; 3 |]);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  match Pool.parallel_map pool Fun.id [| 1 |] with
  | _ -> Alcotest.fail "use after shutdown should raise"
  | exception Invalid_argument _ -> ()

(* --- sharded interner --- *)

let sharded_values k = List.init k (fun i -> Value.pair (Value.int i) (Value.str "s"))

let test_sharded_claim () =
  let t = Intern.Sharded.create ~stripes:7 ~size_hint:16 () in
  let vs = sharded_values 50 in
  let firsts = List.map (fun v -> Intern.Sharded.intern t v) vs in
  List.iter
    (fun (_, fresh) -> Alcotest.(check bool) "first intern is fresh" true fresh)
    firsts;
  (* ids are dense: a permutation of 0 .. k-1 *)
  Alcotest.(check (list int))
    "ids are dense"
    (List.init 50 Fun.id)
    (List.sort compare (List.map fst firsts));
  let seconds = List.map (fun v -> Intern.Sharded.intern t v) vs in
  List.iter2
    (fun (id1, _) (id2, fresh2) ->
      Alcotest.(check int) "stable id on re-intern" id1 id2;
      Alcotest.(check bool) "claim fires exactly once" false fresh2)
    firsts seconds;
  Alcotest.(check int) "size counts distinct values" 50 (Intern.Sharded.size t);
  List.iter2
    (fun v (id, _) ->
      Alcotest.(check (option int))
        "find_opt agrees" (Some id)
        (Intern.Sharded.find_opt t v))
    vs firsts;
  Alcotest.(check (option int))
    "find_opt misses unseen" None
    (Intern.Sharded.find_opt t (Value.str "unseen"));
  let st = Intern.Sharded.stats t in
  Alcotest.(check int) "stats entries" 50 st.Intern.entries;
  Alcotest.(check bool) "stats load positive" true (st.Intern.load > 0.0)

let test_sharded_parallel () =
  (* concurrent interning from 4 domains: each value claimed exactly
     once, every domain agrees on the ids afterwards *)
  let t = Intern.Sharded.create () in
  let vs = Array.of_list (sharded_values 200) in
  Pool.with_pool ~domains:4 (fun pool ->
      let fresh_counts =
        Pool.parallel_map pool
          (fun _ ->
            Array.fold_left
              (fun acc v ->
                let _, fresh = Intern.Sharded.intern t v in
                if fresh then acc + 1 else acc)
              0 vs)
          [| 0; 1; 2; 3 |]
      in
      Alcotest.(check int)
        "each value claimed exactly once across domains" 200
        (Array.fold_left ( + ) 0 fresh_counts));
  Alcotest.(check int) "size after race" 200 (Intern.Sharded.size t);
  Alcotest.(check (list int))
    "dense ids after race"
    (List.init 200 Fun.id)
    (List.sort compare
       (Array.to_list
          (Array.map
             (fun v ->
               match Intern.Sharded.find_opt t v with
               | Some id -> id
               | None -> Alcotest.fail "value lost")
             vs)))

let test_intern_stats () =
  let t = Intern.create ~size_hint:64 () in
  List.iter (fun v -> ignore (Intern.intern t v)) (sharded_values 30);
  let st = Intern.stats t in
  Alcotest.(check int) "entries" 30 st.Intern.entries;
  Alcotest.(check bool) "buckets positive" true (st.Intern.buckets > 0);
  Alcotest.(check bool) "max_bucket sane" true (st.Intern.max_bucket >= 1);
  Alcotest.(check bool) "load sane" true (st.Intern.load > 0.0)

(* --- engine.parallel: the sequential/parallel differential --- *)

let with_pool4 f = Pool.with_pool ~domains:4 f

(* Every registry protocol explored sequentially and under 2- and
   4-domain pools (the sleep-set reduction on throughout): identical
   stats. *)
let check_pools ?crashes () =
  let seqs =
    List.map
      (fun (name, (p : Protocol.t)) ->
        (name, p, Explorer.explore ?crashes p.Protocol.config))
      (Test_perf_engine.registry_protocols ())
  in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          List.iter
            (fun (name, (p : Protocol.t), seq) ->
              Test_perf_engine.check_stats_equal
                (Fmt.str "%s [j=%d%s]" name domains
                   (if crashes = None then "" else ", crashes=1"))
                seq
                (Explorer.explore ?crashes ~pool p.Protocol.config))
            seqs))
    [ 2; 4 ]

let test_explore_parallel_differential () = check_pools ()
let test_explore_parallel_crashes () = check_pools ~crashes:1 ()

(* The hand-made cyclic and invalid-decision configs and the broken
   registry entries, which the sound registry never reaches, under 2-
   and 4-domain pools: identical stats.  A stuck run is reported stuck
   at every pool size (which states it reached before stopping is the
   one part that may depend on the schedule). *)
let test_explore_parallel_handmade () =
  let configs =
    List.concat_map
      (fun n ->
        [
          (Fmt.str "sym-tas n=%d" n, Test_perf_engine.symmetric_tas_config n);
          (Fmt.str "sym-spin n=%d" n, Test_perf_engine.symmetric_spin_config n);
          ( Fmt.str "borrowed-decision n=%d" n,
            Test_perf_engine.borrowed_decision_config n );
        ])
      [ 2; 3 ]
    @ List.filter_map
        (fun (e : Registry.entry) ->
          Option.map
            (fun (p : Protocol.t) -> (e.Registry.key ^ " n=2", p.Protocol.config))
            (e.Registry.build ~n:2))
        Registry.broken
  in
  let stuck = Test_perf_engine.unknown_op_config () in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          List.iter
            (fun (name, config) ->
              Test_perf_engine.check_stats_equal
                (Fmt.str "%s [j=%d]" name domains)
                (Explorer.explore config)
                (Explorer.explore ~pool config))
            configs;
          let par = Explorer.explore ~pool stuck in
          Alcotest.(check bool)
            (Fmt.str "unknown-op [j=%d]: stuck" domains)
            true (par.Explorer.stuck <> None);
          Alcotest.(check bool)
            (Fmt.str "unknown-op [j=%d]: not wait-free" domains)
            false (Explorer.wait_free par)))
    [ 2; 4 ]

(* A run cut short by a budget reports the same cause, and never a
   wait-freedom verdict or step bounds, at every pool size; which states
   fall inside the budget may depend on the schedule. *)
let test_explore_parallel_budgets () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          List.iter
            (fun (name, (p : Protocol.t)) ->
              List.iter
                (fun (label, max_states, max_depth) ->
                  let run pool =
                    Explorer.explore ?pool ?max_states ?max_depth
                      p.Protocol.config
                  in
                  let seq = run None and par = run (Some pool) in
                  let name = Fmt.str "%s [j=%d, %s]" name domains label in
                  Alcotest.(check bool)
                    (name ^ ": truncated") seq.Explorer.truncated
                    par.Explorer.truncated;
                  Alcotest.(check string)
                    (name ^ ": truncation cause")
                    (Test_perf_engine.truncation_str seq.Explorer.truncation)
                    (Test_perf_engine.truncation_str par.Explorer.truncation);
                  Alcotest.(check bool)
                    (name ^ ": wait_free") (Explorer.wait_free seq)
                    (Explorer.wait_free par);
                  Alcotest.(check (option (array int)))
                    (name ^ ": step_bounds") seq.Explorer.step_bounds
                    par.Explorer.step_bounds)
                [
                  ("max_states=40", Some 40, None);
                  ("max_depth=3", None, Some 3);
                ])
            (Test_perf_engine.registry_protocols ())))
    [ 2; 4 ]

(* Four processes each decide what a fetch-and-add from 1 returns: a
   decide naming a process that has not stepped, or naming P4, which
   does not exist, is invalid — 13 distinct (pid, value) pairs.  Every
   engine reports all of them, sorted. *)
let faa_deciders () =
  let proc pid =
    Process.make ~pid ~init:(Process.at 0) (fun local ->
        match Process.pc local with
        | 0 ->
            Process.invoke ~obj:"c" (Registers.faa 1) (fun res ->
                Process.at 1 ~data:res)
        | 1 -> Process.decide (Process.data local)
        | _ -> assert false)
  in
  {
    Explorer.procs = Array.init 4 proc;
    env = Env.make [ ("c", Registers.fetch_and_add ~init:1 ()) ];
  }

let test_invalid_decisions_full_set () =
  let config = faa_deciders () in
  let seq = Explorer.explore config in
  Alcotest.(check int)
    "distinct invalid pairs" 13
    (List.length seq.Explorer.invalid_decisions);
  Test_perf_engine.check_stats_equal "oracle = j=1"
    (Explorer_oracle.explore config)
    seq;
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          Test_perf_engine.check_stats_equal
            (Fmt.str "j=1 = j=%d" domains)
            seq
            (Explorer.explore ~pool config)))
    [ 2; 4 ]

let test_census_parallel () =
  (* tiny budget: verdicts degrade to Budget identically on both paths,
     and the whole report must print byte-identically *)
  let seq = Fmt.str "%a" Census.pp (Census.run ~max_nodes:50_000 ()) in
  with_pool4 (fun pool ->
      let par = Fmt.str "%a" Census.pp (Census.run ~max_nodes:50_000 ~pool ()) in
      Alcotest.(check string) "census output byte-identical" seq par)

let test_table_parallel () =
  let seq = Fmt.str "%a" Table.pp (Table.generate ()) in
  with_pool4 (fun pool ->
      let par = Fmt.str "%a" Table.pp (Table.generate ~pool ()) in
      Alcotest.(check string) "hierarchy table byte-identical" seq par)

let suite =
  [
    ( "pool",
      [
        Alcotest.test_case "parallel_map order and values" `Quick
          test_map_order;
        Alcotest.test_case "map_heaviest_first: plan-order results" `Quick
          test_map_heaviest_first;
        Alcotest.test_case "map_heaviest_first: heaviest job starts first"
          `Quick test_heaviest_starts_first;
        Alcotest.test_case "lowest-index exception wins" `Quick
          test_exception_lowest_index;
        Alcotest.test_case "reuse across batches" `Quick
          test_reuse_across_batches;
        Alcotest.test_case "nested parallel_map runs inline" `Quick
          test_nested_runs_inline;
        Alcotest.test_case "shutdown is idempotent and final" `Quick
          test_shutdown;
      ] );
    ( "pool.intern",
      [
        Alcotest.test_case "sharded claim-bit semantics" `Quick
          test_sharded_claim;
        Alcotest.test_case "sharded interning under contention" `Quick
          test_sharded_parallel;
        Alcotest.test_case "table stats" `Quick test_intern_stats;
      ] );
    ( "engine.parallel",
      [
        Alcotest.test_case "explore: j=1 = j=2 = j=4 on registry" `Quick
          test_explore_parallel_differential;
        Alcotest.test_case "explore: j=1 = j=2 = j=4 with crashes" `Quick
          test_explore_parallel_crashes;
        Alcotest.test_case "explore: j=1 = j=2 = j=4 off the registry"
          `Quick test_explore_parallel_handmade;
        Alcotest.test_case "explore: budgets truncate alike at any -j" `Quick
          test_explore_parallel_budgets;
        Alcotest.test_case "invalid decisions: full sorted set, any -j"
          `Quick test_invalid_decisions_full_set;
        Alcotest.test_case "census: sharded output byte-identical" `Quick
          test_census_parallel;
        Alcotest.test_case "hierarchy table: sharded byte-identical" `Quick
          test_table_parallel;
      ] );
  ]
