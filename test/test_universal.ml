(* The universal constructions of §4: merge operator, replay, the
   fetch-and-cons log construction (plain and truncating), and
   fetch-and-cons from consensus rounds (Figure 4-5). *)

open Wfs_spec
open Wfs_universal

let value = Alcotest.testable Value.pp Value.equal
let vlist = Alcotest.(list value)

let ints = List.map Value.int

(* --- merge operator --- *)

let test_merge_empty_prefix () =
  Alcotest.check vlist "Λ \\ h = h" (ints [ 1; 2 ])
    (Merge.merge ~prefix:[] ~suffix:(ints [ 1; 2 ]))

let test_merge_dedup () =
  Alcotest.check vlist "drops entries already present"
    (ints [ 1; 3; 2 ])
    (Merge.merge ~prefix:(ints [ 1; 2; 3 ]) ~suffix:(ints [ 2 ]))

let test_merge_preserves_order () =
  Alcotest.check vlist "prefix order preserved"
    (ints [ 5; 4; 9 ])
    (Merge.merge ~prefix:(ints [ 5; 4 ]) ~suffix:(ints [ 9 ]))

let test_trim () =
  Alcotest.(check (option vlist))
    "items after x" (Some (ints [ 3; 4 ]))
    (Merge.trim (ints [ 1; 2; 3; 4 ]) (Value.int 2));
  Alcotest.(check (option vlist))
    "missing" None
    (Merge.trim (ints [ 1 ]) (Value.int 7))

let test_suffix_coherence () =
  Alcotest.(check bool) "suffix" true (Merge.is_suffix (ints [ 2; 3 ]) (ints [ 1; 2; 3 ]));
  Alcotest.(check bool) "not suffix" false
    (Merge.is_suffix (ints [ 1; 3 ]) (ints [ 1; 2; 3 ]));
  Alcotest.(check bool) "coherent" true
    (Merge.coherent [ ints [ 3 ]; ints [ 2; 3 ]; ints [ 1; 2; 3 ] ]);
  Alcotest.(check bool) "incoherent" false
    (Merge.coherent [ ints [ 1; 3 ]; ints [ 2; 3 ] ])

(* qcheck: merge result contains exactly the union, suffix preserved *)
let gen_small_ints = QCheck2.Gen.(list_size (int_range 0 6) (int_range 0 9))

let prop_merge_suffix_preserved =
  QCheck2.Test.make ~name:"merge preserves the suffix" ~count:300
    QCheck2.Gen.(pair gen_small_ints gen_small_ints)
    (fun (p, s) ->
      let p = ints p and s = ints s in
      Merge.is_suffix s (Merge.merge ~prefix:p ~suffix:s))

let prop_merge_union =
  QCheck2.Test.make ~name:"merge contains prefix ∪ suffix, nothing else"
    ~count:300
    QCheck2.Gen.(pair gen_small_ints gen_small_ints)
    (fun (p, s) ->
      let p = ints p and s = ints s in
      let m = Merge.merge ~prefix:p ~suffix:s in
      List.for_all (fun x -> Merge.mem x m) (p @ s)
      && List.for_all (fun x -> Merge.mem x p || Merge.mem x s) m)

let prop_merge_idempotent =
  QCheck2.Test.make ~name:"merging twice adds nothing" ~count:300
    QCheck2.Gen.(pair gen_small_ints gen_small_ints)
    (fun (p, s) ->
      let p = ints p and s = ints s in
      let once = Merge.merge ~prefix:p ~suffix:s in
      List.equal Value.equal once (Merge.merge ~prefix:p ~suffix:once))

(* --- replay --- *)

let queue ?(name = "q") () =
  Queues.fifo ~name ~items:(ints [ 1; 2; 3 ]) ()

let test_replay_roundtrip () =
  let spec = queue () in
  let log =
    [
      Replay.op_entry ~pid:1 ~seq:0 Queues.deq;
      Replay.op_entry ~pid:0 ~seq:1 (Queues.enq (Value.int 2));
      Replay.op_entry ~pid:0 ~seq:0 (Queues.enq (Value.int 1));
    ]
  in
  let state, cost = Replay.reconstruct spec log in
  Alcotest.(check int) "replayed all" 3 cost;
  Alcotest.check value "state after enq1;enq2;deq" (Value.list (ints [ 2 ])) state

let test_replay_stops_at_state () =
  let spec = queue () in
  let log =
    [
      Replay.op_entry ~pid:0 ~seq:1 (Queues.enq (Value.int 3));
      Replay.state_entry (Value.list (ints [ 1; 2 ]));
      Replay.op_entry ~pid:0 ~seq:0 (Queues.enq (Value.int 9));
      (* below the state entry: must be ignored *)
    ]
  in
  let state, cost = Replay.reconstruct spec log in
  Alcotest.(check int) "replayed one op" 1 cost;
  Alcotest.check value "state" (Value.list (ints [ 1; 2; 3 ])) state

let test_response () =
  let spec = queue () in
  let log = [ Replay.op_entry ~pid:0 ~seq:0 (Queues.enq (Value.int 7)) ] in
  let result, post, cost = Replay.response spec log Queues.deq in
  Alcotest.check value "deq sees 7" (Value.int 7) result;
  Alcotest.check value "post empty" (Value.list []) post;
  Alcotest.(check int) "cost" 1 cost

(* --- log universal construction (§4.1) --- *)

let test_log_universal_queue () =
  let v =
    Log_universal.verify ~target:(queue ())
      ~scripts:
        [|
          [ Queues.enq (Value.int 1); Queues.deq ];
          [ Queues.enq (Value.int 2); Queues.deq ];
        |]
      ()
  in
  Alcotest.(check bool) "ok" true v.Log_universal.ok;
  Alcotest.(check bool) "wait-free" true v.Log_universal.wait_free

let test_log_universal_counter () =
  let v =
    Log_universal.verify
      ~target:(Collections.counter ~name:"c" ())
      ~scripts:
        [|
          [ Collections.incr; Collections.incr ];
          [ Collections.incr; Collections.read ];
          [ Collections.decr ];
        |]
      ()
  in
  Alcotest.(check bool) "ok" true v.Log_universal.ok

let test_log_universal_stack () =
  let v =
    Log_universal.verify
      ~target:(Queues.stack ~name:"s" ~items:(ints [ 1; 2 ]) ())
      ~scripts:
        [| [ Queues.push (Value.int 1); Queues.pop ]; [ Queues.push (Value.int 2) ] |]
      ()
  in
  Alcotest.(check bool) "ok" true v.Log_universal.ok

let test_log_universal_abstract_history_linearizable () =
  (* cross-check: single runs produce linearizable abstract histories *)
  let target = queue () in
  List.iter
    (fun seed ->
      let _, abstract =
        Log_universal.run ~target
          ~scripts:
            [|
              [ Queues.enq (Value.int 1); Queues.deq ];
              [ Queues.enq (Value.int 2); Queues.deq ];
            |]
          ~schedule:(Wfs_sim.Scheduler.random ~seed) ()
      in
      Alcotest.(check bool)
        (Fmt.str "linearizable (seed %d)" seed)
        true
        (Wfs_history.Linearizability.is_linearizable [ ("q", target) ] abstract))
    [ 1; 2; 3; 4; 5 ]

(* --- truncating construction --- *)

let test_truncating_ok_and_bounded () =
  let v =
    Truncating_universal.verify ~target:(queue ())
      ~scripts:
        [|
          [ Queues.enq (Value.int 1); Queues.deq ];
          [ Queues.enq (Value.int 2); Queues.deq ];
        |]
      ()
  in
  Alcotest.(check bool) "ok" true v.Truncating_universal.ok;
  Alcotest.(check bool) "replay bounded by n" true
    (v.Truncating_universal.max_replay <= 2)

let test_truncating_replay_stays_bounded_long_script () =
  (* sequential run with a long script: plain log replay would grow
     linearly; truncation keeps every replay ≤ n *)
  let script = List.concat (List.init 8 (fun i -> [ Queues.enq (Value.int (i mod 3 + 1)); Queues.deq ])) in
  let outcome =
    Truncating_universal.run ~target:(queue ())
      ~scripts:[| script; [ Queues.enq (Value.int 1) ] |]
      ~schedule:Wfs_sim.Scheduler.round_robin ()
  in
  Alcotest.(check bool) "completed" true outcome.Wfs_sim.Runner.completed;
  List.iter
    (fun (_, d) ->
      match d with
      | Value.List entries ->
          List.iter
            (fun e ->
              let _, cost = Value.as_pair e in
              Alcotest.(check bool) "cost ≤ 2" true (Value.as_int cost <= 2))
            entries
      | _ -> Alcotest.fail "bad decision shape")
    outcome.Wfs_sim.Runner.decisions

let test_plain_log_replay_grows () =
  (* the contrast: without truncation the k-th op replays k-1 entries *)
  let target = Collections.counter ~name:"c" () in
  let k = 10 in
  let script = List.init k (fun _ -> Collections.incr) in
  let cfg = Log_universal.config ~target ~scripts:[| script |] in
  let outcome =
    Wfs_sim.Runner.run ~procs:cfg.Wfs_sim.Explorer.procs
      ~env:cfg.Wfs_sim.Explorer.env ~schedule:Wfs_sim.Scheduler.round_robin ()
  in
  Alcotest.(check bool) "completed" true outcome.Wfs_sim.Runner.completed;
  (* final log length = k: the last op replayed k-1 entries *)
  let final_log =
    match outcome.Wfs_sim.Runner.trace with
    | [] -> Alcotest.fail "no steps"
    | steps -> (
        match List.rev steps with
        | last :: _ -> Value.as_list last.Wfs_sim.Runner.res
        | [] -> assert false)
  in
  Alcotest.(check int) "last op saw k-1 predecessors" (k - 1)
    (List.length final_log)

(* --- consensus-based fetch-and-cons (Figure 4-5) --- *)

let test_consensus_fac_coherent_n2 () =
  let v =
    Consensus_fac.verify
      ~scripts:[| [ Queues.enq (Value.int 1) ]; [ Queues.enq (Value.int 2) ] |]
      ()
  in
  Alcotest.(check bool) "ok" true v.Consensus_fac.ok;
  Alcotest.(check bool) "wait-free" true v.Consensus_fac.wait_free

let test_consensus_fac_coherent_n2_multi () =
  let v =
    Consensus_fac.verify
      ~scripts:
        [|
          [ Queues.enq (Value.int 1); Queues.deq ];
          [ Queues.enq (Value.int 2) ];
        |]
      ()
  in
  Alcotest.(check bool) "ok" true v.Consensus_fac.ok

let test_consensus_fac_n3_random () =
  (* n=3 exhaustively is too large; check coherence across many seeds *)
  List.iter
    (fun seed ->
      let outcome =
        Consensus_fac.run
          ~scripts:
            [|
              [ Queues.enq (Value.int 1) ];
              [ Queues.enq (Value.int 2) ];
              [ Queues.enq (Value.int 3) ];
            |]
          ~schedule:(Wfs_sim.Scheduler.random ~seed) ()
      in
      Alcotest.(check bool) "completed" true outcome.Wfs_sim.Runner.completed;
      let views =
        List.map (fun (_, _, v) -> v) (Consensus_fac.views_of_outcome outcome)
      in
      Alcotest.(check bool)
        (Fmt.str "coherent (seed %d)" seed)
        true (Merge.coherent views))
    (List.init 25 (fun i -> i * 7))

let test_consensus_fac_realtime_suffix () =
  (* Lemma 25: under the sequential scheduler P0's operation completes
     before P1 starts, so P0's view must be a suffix of P1's *)
  let outcome =
    Consensus_fac.run
      ~scripts:[| [ Queues.enq (Value.int 1) ]; [ Queues.enq (Value.int 2) ] |]
      ~schedule:Wfs_sim.Scheduler.sequential ()
  in
  match Consensus_fac.views_of_outcome outcome with
  | [ (0, _, v0); (1, _, v1) ] ->
      Alcotest.(check bool) "P0's view is a suffix of P1's" true
        (Merge.is_suffix v0 v1)
  | other ->
      Alcotest.failf "expected two views, got %d" (List.length other)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_merge_suffix_preserved; prop_merge_union; prop_merge_idempotent ]

let suite =
  [
    ( "universal.merge",
      [
        Alcotest.test_case "empty prefix" `Quick test_merge_empty_prefix;
        Alcotest.test_case "dedup" `Quick test_merge_dedup;
        Alcotest.test_case "order" `Quick test_merge_preserves_order;
        Alcotest.test_case "trim" `Quick test_trim;
        Alcotest.test_case "suffix/coherence" `Quick test_suffix_coherence;
      ] );
    ("universal.merge.properties", qsuite);
    ( "universal.replay",
      [
        Alcotest.test_case "roundtrip" `Quick test_replay_roundtrip;
        Alcotest.test_case "stops at state" `Quick test_replay_stops_at_state;
        Alcotest.test_case "response" `Quick test_response;
      ] );
    ( "universal.log",
      [
        Alcotest.test_case "queue exhaustive" `Quick test_log_universal_queue;
        Alcotest.test_case "counter 3 procs" `Quick test_log_universal_counter;
        Alcotest.test_case "stack" `Quick test_log_universal_stack;
        Alcotest.test_case "abstract history linearizable" `Quick
          test_log_universal_abstract_history_linearizable;
      ] );
    ( "universal.truncating",
      [
        Alcotest.test_case "exhaustive + bounded replay" `Quick
          test_truncating_ok_and_bounded;
        Alcotest.test_case "long script stays bounded" `Quick
          test_truncating_replay_stays_bounded_long_script;
        Alcotest.test_case "plain log replay grows" `Quick
          test_plain_log_replay_grows;
      ] );
    ( "universal.consensus-fac",
      [
        Alcotest.test_case "n=2 exhaustive (Lemma 24)" `Quick
          test_consensus_fac_coherent_n2;
        Alcotest.test_case "n=2 multi-op exhaustive" `Quick
          test_consensus_fac_coherent_n2_multi;
        Alcotest.test_case "n=3 random coherence" `Quick
          test_consensus_fac_n3_random;
        Alcotest.test_case "real-time suffix (Lemma 25)" `Quick
          test_consensus_fac_realtime_suffix;
      ] );
  ]

(* --- Theorem 26 composed: consensus -> fetch-and-cons -> object --- *)

let test_composed_counter_n2 () =
  let v =
    Composed.verify
      ~target:(Collections.counter ~name:"c" ())
      ~scripts:[| [ Collections.incr ]; [ Collections.incr ] |]
      ()
  in
  Alcotest.(check bool) "ok" true v.Composed.ok

let test_composed_queue_n2 () =
  let v =
    Composed.verify ~target:(queue ())
      ~scripts:[| [ Queues.enq (Value.int 1) ]; [ Queues.deq ] |]
      ()
  in
  Alcotest.(check bool) "ok" true v.Composed.ok

let test_composed_queue_multi_op () =
  let v =
    Composed.verify ~target:(queue ())
      ~scripts:
        [| [ Queues.enq (Value.int 1); Queues.deq ]; [ Queues.enq (Value.int 2) ] |]
      ()
  in
  Alcotest.(check bool) "ok" true v.Composed.ok

let test_composed_run_linearizes () =
  (* seeded runs: the (pid, seq, op, result) tuples must form a legal
     sequential history in SOME order consistent with the views; cross
     check with the linearizability checker over instantaneous ops *)
  let target = queue () in
  List.iter
    (fun seed ->
      let outcome, triples =
        Composed.run ~target
          ~scripts:
            [| [ Queues.enq (Value.int 1); Queues.deq ];
               [ Queues.enq (Value.int 2); Queues.deq ] |]
          ~schedule:(Wfs_sim.Scheduler.random ~seed) ()
      in
      Alcotest.(check bool) "completed" true outcome.Wfs_sim.Runner.completed;
      Alcotest.(check int) "all ops answered" 4 (List.length triples);
      let h =
        List.concat_map
          (fun (pid, _, op, res) ->
            [
              Wfs_history.Event.invoke ~pid ~obj:"target" op;
              Wfs_history.Event.respond ~pid ~obj:"target" res;
            ])
          triples
      in
      (* sequential-consistency suffices here: triples are not ordered
         by real time *)
      let spec = Queues.fifo ~name:"target" ~items:(ints [ 1; 2; 3 ]) () in
      Alcotest.(check bool)
        (Fmt.str "SC (seed %d)" seed)
        true
        (Wfs_history.Sequential_consistency.is_sequentially_consistent spec h))
    [ 3; 14; 15 ]

(* --- capped checks are inconclusive ---

   A search cut short by its state budget has not seen every terminal,
   so none of the four verifiers may report success. *)

let test_capped_checks_inconclusive () =
  let scripts =
    [|
      [ Queues.enq (Value.int 1); Queues.deq ];
      [ Queues.enq (Value.int 2); Queues.deq ];
    |]
  in
  let capped name ~ok ~wait_free ~states ~cap =
    Alcotest.(check bool) (name ^ ": not ok") false ok;
    Option.iter
      (fun wf -> Alcotest.(check bool) (name ^ ": not wait-free") false wf)
      wait_free;
    Alcotest.(check bool)
      (Fmt.str "%s: %d states within the cap %d" name states cap)
      true (states <= cap)
  in
  let l = Log_universal.verify ~max_states:10 ~target:(queue ()) ~scripts () in
  capped "log" ~ok:l.Log_universal.ok
    ~wait_free:(Some l.Log_universal.wait_free) ~states:l.Log_universal.states
    ~cap:10;
  let t =
    Truncating_universal.verify ~max_states:10 ~target:(queue ()) ~scripts ()
  in
  capped "truncating" ~ok:t.Truncating_universal.ok
    ~wait_free:(Some t.Truncating_universal.wait_free)
    ~states:t.Truncating_universal.states ~cap:10;
  let f = Consensus_fac.verify ~max_states:100 ~scripts () in
  capped "fac" ~ok:f.Consensus_fac.ok
    ~wait_free:(Some f.Consensus_fac.wait_free) ~states:f.Consensus_fac.states
    ~cap:100;
  let c = Composed.verify ~max_states:100 ~target:(queue ()) ~scripts () in
  capped "composed" ~ok:c.Composed.ok ~wait_free:None
    ~states:c.Composed.states ~cap:100

let composed_suite =
  ( "universal.composed-thm26",
    [
      Alcotest.test_case "counter n=2 exhaustive" `Quick test_composed_counter_n2;
      Alcotest.test_case "queue n=2 exhaustive" `Quick test_composed_queue_n2;
      Alcotest.test_case "queue multi-op exhaustive" `Quick
        test_composed_queue_multi_op;
      Alcotest.test_case "seeded runs linearize" `Quick
        test_composed_run_linearizes;
      Alcotest.test_case "capped checks are inconclusive" `Quick
        test_capped_checks_inconclusive;
    ] )

let suite = suite @ [ composed_suite ]
