(* The crash-stop fault layer, both substrates.

   Sim side: a crash budget of 0 must be *observationally identical* to
   the original crash-free semantics (differential check over the whole
   registry), sound protocols must keep passing under any budget up to
   n-1 (wait-freedom checked literally), and the naive register protocol
   must fail with a crash-bearing schedule that replays and round-trips
   through the on-disk counterexample format.  Runtime side: the
   deterministic injector (the halt-k-of-n crash runs are the load
   harness's, tested in runtime.service). *)

open Wfs_consensus
open Wfs_runtime
module CE = Wfs_obs.Counterexample

(* --- differential: crashes=0 is the crash-free semantics --- *)

let test_crashes_zero_identical () =
  List.iter
    (fun key ->
      let entry = Registry.find key in
      List.iter
        (fun n ->
          match entry.Registry.build ~n with
          | None -> ()
          | Some p ->
              let plain = Protocol.verify p in
              let zero = Protocol.verify ~crashes:0 p in
              Alcotest.(check bool)
                (Fmt.str "%s n=%d: crashes:0 report = plain report" key n)
                true (plain = zero))
        [ 2; 3 ])
    (Registry.keys ())

(* --- sound protocols survive any budget the paper grants --- *)

let test_registry_passes_under_crashes () =
  List.iter
    (fun entry ->
      List.iter
        (fun n ->
          match entry.Registry.build ~n with
          | None -> ()
          | Some p ->
              for crashes = 1 to n - 1 do
                let r = Protocol.verify ~crashes p in
                Alcotest.(check bool)
                  (Fmt.str "%s n=%d crashes=%d passes" entry.Registry.key n
                     crashes)
                  true (Protocol.passed r);
                Alcotest.(check int)
                  (Fmt.str "%s n=%d report echoes budget" entry.Registry.key n)
                  crashes r.Protocol.crashes
              done)
        [ 2; 3 ])
    Registry.entries

let test_crash_budget_grows_state_space () =
  let entry = Registry.find "cas" in
  match entry.Registry.build ~n:2 with
  | None -> Alcotest.fail "cas builds at n=2"
  | Some p ->
      let r0 = Protocol.verify p and r1 = Protocol.verify ~crashes:1 p in
      Alcotest.(check bool)
        "crash edges add reachable states" true
        (r1.Protocol.states > r0.Protocol.states)

let test_explorer_rejects_negative_budget () =
  let entry = Registry.find "cas" in
  match entry.Registry.build ~n:2 with
  | None -> Alcotest.fail "cas builds at n=2"
  | Some p -> (
      match Protocol.verify ~crashes:(-1) p with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument for crashes=-1")

(* --- the naive register protocol fails by crash --- *)

let naive_register_n3 () =
  match (Registry.find "register-naive").Registry.build ~n:3 with
  | Some p -> p
  | None -> Alcotest.fail "register-naive builds at n=3"

let test_naive_register_crash_counterexample () =
  let p = naive_register_n3 () in
  let r = Protocol.verify ~crashes:1 p in
  Alcotest.(check bool) "fails under one crash" false (Protocol.passed r);
  match Protocol.find_violation ~crashes:1 p with
  | None -> Alcotest.fail "expected a violation"
  | Some v ->
      Alcotest.(check bool)
        "schedule exercises a crash" true
        (List.exists
           (function Protocol.Crash _ -> true | Protocol.Step _ -> false)
           v.Protocol.schedule);
      (* the schedule replays deterministically to the same violation *)
      (match Protocol.replay p ~schedule:v.Protocol.schedule with
      | Some v' ->
          Alcotest.(check bool) "same kind" true (v'.Protocol.kind = v.Protocol.kind);
          Alcotest.(check bool)
            "same decisions" true
            (v'.Protocol.decisions = v.Protocol.decisions)
      | None -> Alcotest.fail "replay lost the violation");
      (* ... and round-trips through the on-disk format with its crash *)
      let ce =
        Protocol.violation_to_counterexample ~protocol:"register-naive" ~n:3 v
      in
      Alcotest.(check string) "crash schedule bumps schema" CE.schema_v2
        (CE.schema_of ce);
      let ce' = CE.of_json (CE.to_json ce) in
      Alcotest.(check bool) "json round trip" true (ce'.CE.schedule = ce.CE.schedule);
      match Protocol.replay_counterexample p ce' with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("counterexample replay diverged: " ^ e)

let test_crash_free_counterexample_keeps_schema_v1 () =
  let p = naive_register_n3 () in
  match Protocol.find_violation p with
  | None -> Alcotest.fail "register-naive violates without crashes too"
  | Some v ->
      let ce =
        Protocol.violation_to_counterexample ~protocol:"register-naive" ~n:3 v
      in
      Alcotest.(check string)
        "crash-free files keep the old schema" CE.schema_v1 (CE.schema_of ce)

(* --- the runtime injector --- *)

let test_injector_halts_permanently () =
  let inj = Fault.create ~n:2 [ { Fault.pid = 0; boundary = 2 } ] in
  Alcotest.(check int) "survives first op" 7
    (Fault.protect inj ~pid:0 (fun () -> 7));
  (match Fault.protect inj ~pid:0 (fun () -> Alcotest.fail "effect must not run")
   with
  | exception Fault.Halted 0 -> ()
  | _ -> Alcotest.fail "expected Halted 0 at boundary 2");
  Alcotest.(check (list int)) "marked down" [ 0 ] (Fault.halted inj);
  (* once down, always down *)
  (match Fault.boundary inj ~pid:0 with
  | exception Fault.Halted 0 -> ()
  | () -> Alcotest.fail "a crashed process took another step");
  (* other processes unaffected *)
  Alcotest.(check int) "pid 1 untouched" 9
    (Fault.protect inj ~pid:1 (fun () -> 9))

let test_injector_halted_ascending () =
  let inj =
    Fault.create ~n:3
      [ { Fault.pid = 2; boundary = 0 }; { Fault.pid = 0; boundary = 1 } ]
  in
  Alcotest.(check (list int)) "none yet" [] (Fault.halted inj);
  (match Fault.boundary inj ~pid:2 with
  | exception Fault.Halted 2 -> ()
  | () -> Alcotest.fail "expected Halted 2 at boundary 0");
  Fault.boundary inj ~pid:0;
  (match Fault.boundary inj ~pid:0 with
  | exception Fault.Halted 0 -> ()
  | () -> Alcotest.fail "expected Halted 0 at boundary 1");
  for _ = 1 to 4 do
    Fault.boundary inj ~pid:1
  done;
  Alcotest.(check (list int)) "ascending, unplanned pid up" [ 0; 2 ]
    (Fault.halted inj)

let test_injector_metrics () =
  let module M = Wfs_obs.Metrics in
  M.reset ();
  let inj =
    Fault.create ~n:2
      [ { Fault.pid = 0; boundary = 3 }; { Fault.pid = 0; boundary = 1 } ]
  in
  M.with_hot (fun () ->
      Alcotest.(check int) "first op survives" 1
        (Fault.protect inj ~pid:1 (fun () -> 1));
      (* the earlier of pid 0's two rules halts it; the later never fires *)
      match Fault.protect inj ~pid:0 (fun () -> 2) with
      | exception Fault.Halted 0 -> ()
      | _ -> Alcotest.fail "expected Halted 0 at boundary 1");
  Alcotest.(check (option int)) "every crossing counted" (Some 4)
    (M.counter_value "fault.boundaries");
  Alcotest.(check (option int)) "one halt" (Some 1)
    (M.counter_value "fault.halts")

let test_injector_validates_plan () =
  match Fault.create ~n:2 [ { Fault.pid = 2; boundary = 0 } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for out-of-range pid"

(* [protect] around a plain primitive: each case checks one face of a
   pending operation, and that the other face does not leak. *)

let test_protected_cas_crash_after_effect () =
  (* halting at the second boundary (odd) crashes *after* the CAS took
     effect: the caller never learns the outcome, but survivors see it *)
  let inj =
    Fault.create ~n:2
      [
        { Fault.pid = 0; boundary = 1 };
        { Fault.pid = 1; boundary = 0 };
      ]
  in
  let c = Primitives.Cas.make 0 in
  (match
     Fault.protect inj ~pid:0 (fun () -> Primitives.Cas.compare_and_set c 0 5)
   with
  | exception Fault.Halted 0 -> ()
  | _ -> Alcotest.fail "expected Halted before the response");
  Alcotest.(check int) "effect visible to a survivor" 5 (Primitives.Cas.read c);
  (* a halt at the first boundary suppresses the CAS *)
  (match
     Fault.protect inj ~pid:1 (fun () -> Primitives.Cas.compare_and_set c 5 7)
   with
  | exception Fault.Halted 1 -> ()
  | _ -> Alcotest.fail "expected Halted before the effect");
  Alcotest.(check int) "before-effect halt leaves it" 5 (Primitives.Cas.read c)

let test_protected_register_crash_before_effect () =
  (* boundary 0 is *before* the operation: the write must not happen *)
  let inj =
    Fault.create ~n:2
      [
        { Fault.pid = 0; boundary = 0 };
        { Fault.pid = 1; boundary = 1 };
      ]
  in
  let r = Primitives.Register.make 1 in
  (match
     Fault.protect inj ~pid:0 (fun () -> Primitives.Register.write r 99)
   with
  | exception Fault.Halted 0 -> ()
  | () -> Alcotest.fail "expected Halted before the effect");
  Alcotest.(check int) "effect suppressed" 1 (Primitives.Register.read r);
  (* a halt at the second boundary lets the write land *)
  (match
     Fault.protect inj ~pid:1 (fun () -> Primitives.Register.write r 42)
   with
  | exception Fault.Halted 1 -> ()
  | () -> Alcotest.fail "expected Halted before the response");
  Alcotest.(check int) "after-effect halt keeps it" 42
    (Primitives.Register.read r)

let suite =
  [
    ( "fault.sim",
      [
        Alcotest.test_case "crashes=0 ≡ crash-free (registry, n=2,3)" `Quick
          test_crashes_zero_identical;
        Alcotest.test_case "registry passes under crashes ≤ n-1" `Quick
          test_registry_passes_under_crashes;
        Alcotest.test_case "crash budget grows state space" `Quick
          test_crash_budget_grows_state_space;
        Alcotest.test_case "negative budget rejected" `Quick
          test_explorer_rejects_negative_budget;
      ] );
    ( "fault.counterexample",
      [
        Alcotest.test_case "register-naive fails by crash, replays" `Quick
          test_naive_register_crash_counterexample;
        Alcotest.test_case "crash-free files keep schema v1" `Quick
          test_crash_free_counterexample_keeps_schema_v1;
      ] );
    ( "fault.injector",
      [
        Alcotest.test_case "halt is permanent" `Quick
          test_injector_halts_permanently;
        Alcotest.test_case "halted pids ascending" `Quick
          test_injector_halted_ascending;
        Alcotest.test_case "boundary and halt counters" `Quick
          test_injector_metrics;
        Alcotest.test_case "plan validation" `Quick test_injector_validates_plan;
        Alcotest.test_case "cas crash after effect" `Quick
          test_protected_cas_crash_after_effect;
        Alcotest.test_case "register crash before effect" `Quick
          test_protected_register_crash_before_effect;
      ] );
  ]
