(* Simulation substrate: runner, explorer, valency analysis. *)

open Wfs_spec
open Wfs_sim

let value = Alcotest.testable Value.pp Value.equal

(* A trivial one-step process that reads a register and decides the pid
   it finds (or its own on ⊥). *)
let reader ~pid ~obj =
  Process.make ~pid ~init:(Process.at 0) (fun local ->
      match Process.pc local with
      | 0 -> Process.invoke ~obj Registers.read (fun res -> Process.at 1 ~data:res)
      | 1 ->
          let v = Process.data local in
          Process.decide (if Value.is_bottom v then Value.pid pid else v)
      | _ -> assert false)

let tas_env () = Env.make [ ("r", Zoo.test_and_set ()) ]

(* The Theorem 4 test-and-set election, written directly. *)
let tas_proc ~pid ~rival =
  Process.make ~pid ~init:(Process.at 0) (fun local ->
      match Process.pc local with
      | 0 -> Process.invoke ~obj:"r" Registers.tas (fun res -> Process.at 1 ~data:res)
      | 1 ->
          Process.decide
            (if Value.equal (Process.data local) (Value.int 0) then Value.pid pid
             else Value.pid rival)
      | _ -> assert false)

let tas_config () =
  { Explorer.procs = [| tas_proc ~pid:0 ~rival:1; tas_proc ~pid:1 ~rival:0 |];
    env = tas_env () }

(* A deliberately non-wait-free protocol: P0 spins reading until the
   register is non-⊥, which never happens if P1 is never scheduled. *)
let spinning_config () =
  let spin =
    Process.make ~pid:0 ~init:(Process.at 0) (fun local ->
        match Process.pc local with
        | 0 ->
            Process.invoke ~obj:"r" Registers.read (fun res ->
                if Value.is_bottom res then Process.at 0 else Process.at 1 ~data:res)
        | 1 -> Process.decide (Process.data local)
        | _ -> assert false)
  in
  let writer =
    Process.make ~pid:1 ~init:(Process.at 0) (fun local ->
        match Process.pc local with
        | 0 ->
            Process.invoke ~obj:"r" (Registers.write (Value.pid 1)) (fun _ ->
                Process.at 1)
        | 1 -> Process.decide (Value.pid 1)
        | _ -> assert false)
  in
  {
    Explorer.procs = [| spin; writer |];
    env = Env.make [ ("r", Registers.atomic ~name:"r" ~init:Value.bottom
                            [ Value.pid 1 ]) ];
  }

(* --- runner --- *)

let test_runner_round_robin () =
  let outcome =
    Runner.run
      ~procs:[| reader ~pid:0 ~obj:"r"; reader ~pid:1 ~obj:"r" |]
      ~env:(Env.make [ ("r", Registers.atomic ~name:"r" ~init:(Value.pid 1)
                              [ Value.pid 0; Value.pid 1 ]) ])
      ~schedule:Scheduler.round_robin ()
  in
  Alcotest.(check bool) "completed" true outcome.Runner.completed;
  Alcotest.(check int) "two decisions" 2 (List.length outcome.Runner.decisions);
  List.iter
    (fun (_, d) -> Alcotest.check value "decision" (Value.pid 1) d)
    outcome.Runner.decisions

let test_runner_trace_history_consistent () =
  let outcome =
    Runner.run
      ~procs:[| tas_proc ~pid:0 ~rival:1; tas_proc ~pid:1 ~rival:0 |]
      ~env:(tas_env ()) ~schedule:(Scheduler.random ~seed:42) ()
  in
  Alcotest.(check int)
    "history has 2 events per step"
    (2 * List.length outcome.Runner.trace)
    (List.length outcome.Runner.history);
  Alcotest.(check bool)
    "history well-formed" true
    (Wfs_history.History.well_formed outcome.Runner.history)

let test_runner_deterministic_seed () =
  let run seed =
    Runner.run
      ~procs:[| tas_proc ~pid:0 ~rival:1; tas_proc ~pid:1 ~rival:0 |]
      ~env:(tas_env ()) ~schedule:(Scheduler.random ~seed) ()
  in
  let a = run 7 and b = run 7 in
  Alcotest.(check (list (pair int (testable Value.pp Value.equal))))
    "same seed, same decisions" a.Runner.decisions b.Runner.decisions

let test_runner_sequential_pauses () =
  (* under the sequential scheduler P0 runs to completion first *)
  let outcome =
    Runner.run
      ~procs:[| tas_proc ~pid:0 ~rival:1; tas_proc ~pid:1 ~rival:0 |]
      ~env:(tas_env ()) ~schedule:Scheduler.sequential ()
  in
  (match outcome.Runner.decisions with
  | (pid, v) :: _ ->
      Alcotest.(check int) "P0 decides first" 0 pid;
      Alcotest.check value "P0 elects itself" (Value.pid 0) v
  | [] -> Alcotest.fail "no decisions");
  Alcotest.(check bool) "completed" true outcome.Runner.completed

let test_runner_budget () =
  let outcome =
    Runner.run ~max_steps:3 (* P0 spins forever under sequential *)
      ~procs:(spinning_config ()).Explorer.procs
      ~env:(spinning_config ()).Explorer.env ~schedule:Scheduler.sequential ()
  in
  Alcotest.(check bool) "did not complete" false outcome.Runner.completed

(* --- explorer --- *)

let test_explorer_tas () =
  let stats = Explorer.explore (tas_config ()) in
  Alcotest.(check bool) "wait-free" true (Explorer.wait_free stats);
  Alcotest.(check int) "two terminal outcomes" 2
    (List.length stats.Explorer.terminals);
  List.iter
    (fun (t : Explorer.terminal) ->
      let d0 = Option.get t.Explorer.decisions.(0) in
      Alcotest.(check bool)
        "agreement" true
        (Array.for_all
           (fun d -> Value.equal d0 (Option.get d))
           t.Explorer.decisions))
    stats.Explorer.terminals

let test_explorer_detects_cycle () =
  let stats = Explorer.explore (spinning_config ()) in
  Alcotest.(check bool) "cycle found" true stats.Explorer.cyclic;
  Alcotest.(check bool) "not wait-free" false (Explorer.wait_free stats)

let test_explorer_step_bounds () =
  let stats = Explorer.explore (tas_config ()) in
  match stats.Explorer.step_bounds with
  | Some bounds ->
      (* one TAS + one decide each *)
      Alcotest.(check (array int)) "bounds" [| 2; 2 |] bounds
  | None -> Alcotest.fail "expected step bounds on a DAG"

let test_explorer_counts_interleavings () =
  (* two single-op processes: initial, 2 mid states, ... small graph *)
  let stats = Explorer.explore (tas_config ()) in
  Alcotest.(check bool) "visited a few states" true (stats.Explorer.states >= 4)

(* --- valency --- *)

let test_valency_root_bivalent () =
  let root_valency, _ = Valency.analyze (tas_config ()) in
  Alcotest.(check bool) "root bivalent" true (Valency.is_bivalent root_valency);
  Alcotest.(check int) "two possible outcomes" 2
    (Valency.Vset.cardinal root_valency)

let test_valency_critical_exists () =
  match Valency.find_critical (tas_config ()) with
  | Some crit ->
      (* at a critical state, the two enabled TAS steps force opposite
         outcomes *)
      let valencies =
        List.map (fun (_, _, v) -> Valency.Vset.choose v) crit.Valency.branches
      in
      Alcotest.(check int) "two branches" 2 (List.length valencies);
      Alcotest.(check bool)
        "branches disagree" false
        (List.for_all (Value.equal (List.hd valencies)) valencies)
  | None -> Alcotest.fail "expected a critical state"

let test_valency_univalent_after_winner () =
  let config = tas_config () in
  let _, valency = Valency.analyze config in
  (* after P0's TAS, only P0 can win *)
  let after_p0 =
    match Explorer.successors config (Explorer.initial config) with
    | (0, succ) :: _ -> succ
    | _ -> Alcotest.fail "expected P0 successor first"
  in
  let v = valency after_p0 in
  Alcotest.(check bool) "univalent" true (Valency.is_univalent v);
  Alcotest.check value "P0 wins" (Value.pid 0) (Valency.Vset.choose v)

let test_valency_rejects_negative_crashes () =
  let invalid = Invalid_argument "Valency.analyze: crashes < 0" in
  Alcotest.check_raises "analyze" invalid (fun () ->
      ignore (Valency.analyze ~crashes:(-1) (tas_config ())));
  Alcotest.check_raises "find_critical" invalid (fun () ->
      ignore (Valency.find_critical ~crashes:(-1) (tas_config ())))

let suite =
  [
    ( "sim.runner",
      [
        Alcotest.test_case "round robin" `Quick test_runner_round_robin;
        Alcotest.test_case "trace/history consistent" `Quick
          test_runner_trace_history_consistent;
        Alcotest.test_case "seeded determinism" `Quick
          test_runner_deterministic_seed;
        Alcotest.test_case "sequential scheduler" `Quick
          test_runner_sequential_pauses;
        Alcotest.test_case "step budget" `Quick test_runner_budget;
      ] );
    ( "sim.explorer",
      [
        Alcotest.test_case "tas protocol explored" `Quick test_explorer_tas;
        Alcotest.test_case "cycle detection" `Quick test_explorer_detects_cycle;
        Alcotest.test_case "step bounds" `Quick test_explorer_step_bounds;
        Alcotest.test_case "state counting" `Quick
          test_explorer_counts_interleavings;
      ] );
    ( "sim.valency",
      [
        Alcotest.test_case "root bivalent" `Quick test_valency_root_bivalent;
        Alcotest.test_case "critical state exists" `Quick
          test_valency_critical_exists;
        Alcotest.test_case "univalent after winner" `Quick
          test_valency_univalent_after_winner;
        Alcotest.test_case "negative crash budget rejected" `Quick
          test_valency_rejects_negative_crashes;
      ] );
  ]

(* --- additional coverage: env, schedulers, explorer edges --- *)

let test_env_duplicate_rejected () =
  Alcotest.check_raises "duplicate object name"
    (Invalid_argument "Env.make: duplicate object \"r\"") (fun () ->
      ignore (Env.make [ ("r", Zoo.register ()); ("r", Zoo.register ()) ]))

let test_env_unknown_object () =
  let env = Env.make [ ("r", Zoo.register ()) ] in
  Alcotest.check_raises "unknown object"
    (Invalid_argument "Env: unknown object \"nope\"") (fun () ->
      ignore (Env.apply env (Env.init env) "nope" Registers.read))

let test_env_apply_is_persistent () =
  let env = Env.make [ ("r", Zoo.register ()) ] in
  let s0 = Env.init env in
  let s1, _ = Env.apply env s0 "r" (Registers.write (Value.pid 1)) in
  (* the original state is untouched *)
  Alcotest.check (Alcotest.testable Value.pp Value.equal) "s0 unchanged"
    Value.bottom (Env.get s0 env "r");
  Alcotest.check (Alcotest.testable Value.pp Value.equal) "s1 updated"
    (Value.pid 1) (Env.get s1 env "r")

let test_scheduler_of_list_replays () =
  let outcome =
    Runner.run
      ~procs:[| tas_proc ~pid:0 ~rival:1; tas_proc ~pid:1 ~rival:0 |]
      ~env:(tas_env ())
      ~schedule:(Scheduler.of_list [ 1; 1; 0; 0 ])
      ()
  in
  (* P1 runs first and wins the election *)
  match outcome.Runner.decisions with
  | (pid, v) :: _ ->
      Alcotest.(check int) "P1 first" 1 pid;
      Alcotest.check (Alcotest.testable Value.pp Value.equal) "P1 wins"
        (Value.pid 1) v
  | [] -> Alcotest.fail "no decisions"

let test_explorer_truncation_flag () =
  let stats = Explorer.explore ~max_states:3 (tas_config ()) in
  Alcotest.(check bool) "truncated" true stats.Explorer.truncated;
  Alcotest.(check bool) "not wait-free verdict" false
    (Explorer.wait_free stats)

let test_explorer_truncation_causes () =
  (* the stats record which budget cut the run short *)
  let stats = Explorer.explore ~max_states:3 (tas_config ()) in
  Alcotest.(check bool) "states budget named" true
    (stats.Explorer.truncation = Some Explorer.Budget_states);
  let stats = Explorer.explore ~max_depth:2 (tas_config ()) in
  Alcotest.(check bool) "depth budget named" true
    (stats.Explorer.truncation = Some Explorer.Budget_depth);
  Alcotest.(check bool) "depth run still flagged" true
    stats.Explorer.truncated;
  let stats = Explorer.explore (tas_config ()) in
  Alcotest.(check bool) "complete run has no cause" true
    (stats.Explorer.truncation = None)

let test_menu_for_ownership () =
  let ch =
    Channels.fifo_point_to_point ~name:"ch" ~processes:2
      ~messages:[ Value.pid 0 ] ()
  in
  let m0 = Wfs_spec.Object_spec.menu_for ch 0 in
  let m1 = Wfs_spec.Object_spec.menu_for ch 1 in
  (* each process sees sends to both targets but only its own recv *)
  let recvs menu =
    List.filter (fun op -> String.equal (Op.name op) "recv") menu
  in
  Alcotest.(check int) "P0 sees one recv" 1 (List.length (recvs m0));
  Alcotest.(check int) "P1 sees one recv" 1 (List.length (recvs m1));
  Alcotest.(check bool) "different recvs" false
    (Op.equal (List.hd (recvs m0)) (List.hd (recvs m1)))

let extra_suite =
  ( "sim.extra",
    [
      Alcotest.test_case "env duplicate rejected" `Quick
        test_env_duplicate_rejected;
      Alcotest.test_case "env unknown object" `Quick test_env_unknown_object;
      Alcotest.test_case "env persistence" `Quick test_env_apply_is_persistent;
      Alcotest.test_case "of_list scheduler" `Quick
        test_scheduler_of_list_replays;
      Alcotest.test_case "explorer truncation" `Quick
        test_explorer_truncation_flag;
      Alcotest.test_case "explorer truncation causes" `Quick
        test_explorer_truncation_causes;
      Alcotest.test_case "ownership menus" `Quick test_menu_for_ownership;
    ] )

let suite = suite @ [ extra_suite ]
