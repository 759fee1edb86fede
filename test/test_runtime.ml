(* Multicore runtime: primitives, consensus objects, fetch-and-cons
   implementations, and the universal construction on real domains. *)

open Wfs_runtime
module P = Primitives

let domains = 4

(* --- primitives --- *)

let test_tas_single_winner () =
  let flag = P.Test_and_set.make () in
  let winners =
    P.run_domains domains (fun _ -> not (P.Test_and_set.test_and_set flag))
  in
  Alcotest.(check int) "exactly one winner" 1
    (List.length (List.filter Fun.id winners))

let test_faa_counts () =
  let counter = P.Fetch_and_add.make 0 in
  let per_domain = 1000 in
  let olds =
    P.run_domains domains (fun _ ->
        List.init per_domain (fun _ -> P.Fetch_and_add.fetch_and_add counter 1))
  in
  Alcotest.(check int) "total" (domains * per_domain)
    (P.Fetch_and_add.read counter);
  (* every observed old value distinct: faa linearizes *)
  let all = List.concat olds in
  Alcotest.(check int) "all distinct" (List.length all)
    (List.length (List.sort_uniq compare all))

let test_swap_token () =
  (* one token travels through the register; everyone else gets None *)
  let reg = P.Swap.make (Some "token") in
  let got = P.run_domains domains (fun _ -> P.Swap.swap reg None) in
  Alcotest.(check int) "one token" 1
    (List.length (List.filter Option.is_some got))

let test_cas_paper_semantics () =
  let r = P.Cas.make 0 in
  let old = P.Cas.compare_and_swap r ~expected:0 ~replacement:5 in
  Alcotest.(check int) "returns old on success" 0 old;
  let old = P.Cas.compare_and_swap r ~expected:0 ~replacement:9 in
  Alcotest.(check int) "returns old on failure" 5 old;
  Alcotest.(check int) "unchanged" 5 (P.Cas.read r)

(* --- consensus --- *)

let test_one_shot_agreement () =
  for _ = 1 to 50 do
    let c = Consensus_rt.One_shot.make () in
    let decisions = P.run_domains domains (fun pid -> Consensus_rt.One_shot.decide c pid) in
    (match decisions with
    | d :: rest ->
        List.iter (fun d' -> Alcotest.(check int) "agreement" d d') rest;
        (* validity: the decision is one of the participants *)
        Alcotest.(check bool) "validity" true (d >= 0 && d < domains)
    | [] -> Alcotest.fail "no decisions");
    (* the winner's own decision is itself *)
    let winner = List.hd decisions in
    Alcotest.(check int) "winner decided itself" winner
      (List.nth decisions winner)
  done

let test_tas_two_agreement () =
  for _ = 1 to 200 do
    let c = Consensus_rt.Tas_two.make () in
    match P.run_domains 2 (fun pid -> Consensus_rt.Tas_two.decide c ~pid (100 + pid)) with
    | [ a; b ] ->
        Alcotest.(check int) "agreement" a b;
        Alcotest.(check bool) "validity" true (a = 100 || a = 101)
    | _ -> Alcotest.fail "expected two decisions"
  done

let test_unbounded_rounds_independent () =
  let c = Consensus_rt.Unbounded.make () in
  Alcotest.(check int) "round 0" 7 (Consensus_rt.Unbounded.decide c ~round:0 7);
  Alcotest.(check int) "round 100 crosses chunks" 9
    (Consensus_rt.Unbounded.decide c ~round:100 9);
  Alcotest.(check int) "round 0 sticks" 7
    (Consensus_rt.Unbounded.decide c ~round:0 8)

(* --- fetch-and-cons --- *)

let check_fac_chain name fac_run =
  (* each caller's returned tail must be exactly the final chain's
     suffix after its own item — i.e. the chain linearizes the calls *)
  let per_domain = 50 in
  let results, final =
    fac_run ~domains ~per_domain
  in
  Alcotest.(check int)
    (name ^ ": chain holds every item")
    (domains * per_domain) (List.length final);
  let rec suffix_after x = function
    | [] -> None
    | y :: rest -> if x = y then Some rest else suffix_after x rest
  in
  List.iter
    (fun (item, tail) ->
      match suffix_after item final with
      | Some expected ->
          Alcotest.(check bool)
            (name ^ ": returned tail matches the chain")
            true (expected = tail)
      | None -> Alcotest.fail (name ^ ": item missing from chain"))
    results

let test_cas_fac () =
  check_fac_chain "cas" (fun ~domains ~per_domain ->
      let t = Fetch_and_cons_rt.Cas_based.make () in
      let results =
        P.run_domains domains (fun pid ->
            List.init per_domain (fun i ->
                let item = (pid, i) in
                (item, Fetch_and_cons_rt.Cas_based.fetch_and_cons t item)))
      in
      (List.concat results, Fetch_and_cons_rt.Cas_based.contents t))

let test_swap_fac () =
  check_fac_chain "swap" (fun ~domains ~per_domain ->
      let t = Fetch_and_cons_rt.Swap_based.make () in
      let results =
        P.run_domains domains (fun pid ->
            List.init per_domain (fun i ->
                let item = (pid, i) in
                (item, Fetch_and_cons_rt.Swap_based.fetch_and_cons t item)))
      in
      (List.concat results, Fetch_and_cons_rt.Swap_based.contents t))

let test_rounds_fac_views_coherent () =
  let n = domains in
  let t = Fetch_and_cons_rt.Rounds.make ~n ~equal:(fun (a, b) (c, d) -> a = c && b = d) in
  let per_domain = 10 in
  let results =
    P.run_domains n (fun pid ->
        let h = Fetch_and_cons_rt.Rounds.handle t ~pid in
        List.init per_domain (fun i ->
            let item = (pid, i) in
            (item, item :: Fetch_and_cons_rt.Rounds.fetch_and_cons h item)))
  in
  let views = List.map snd (List.concat results) in
  (* coherence (Lemma 24): any two full views are suffix-related *)
  let is_suffix a b =
    let la = List.length a and lb = List.length b in
    la <= lb && List.filteri (fun i _ -> i >= lb - la) b = a
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool) "views coherent" true
            (is_suffix a b || is_suffix b a))
        views)
    views;
  (* all items present in the longest view *)
  let longest =
    List.fold_left (fun acc v -> if List.length v > List.length acc then v else acc)
      [] views
  in
  Alcotest.(check int) "longest view has all items" (n * per_domain)
    (List.length longest)

(* --- universal construction --- *)

module UQ = Universal_rt.Lock_free (Seq_objects.Queue_of_int)
module WQ = Universal_rt.Wait_free (Seq_objects.Queue_of_int)
module LQ = Universal_rt.Locked (Seq_objects.Queue_of_int)
module UC = Universal_rt.Lock_free (Seq_objects.Counter)

let queue_stress name enq deq =
  (* half the domains enqueue tagged items, half dequeue; conservation:
     dequeued ⊎ leftover = enqueued, no duplicates *)
  let per_domain = 200 in
  let producers = domains / 2 in
  let consumed = Atomic.make [] in
  let produced = Atomic.make [] in
  let note atom x =
    let rec go () =
      let old = Atomic.get atom in
      if not (Atomic.compare_and_set atom old (x :: old)) then go ()
    in
    go ()
  in
  let results =
    P.run_domains domains (fun pid ->
        if pid < producers then
          for i = 0 to per_domain - 1 do
            let item = (pid * 1_000_000) + i in
            enq item;
            note produced item
          done
        else
          for _ = 0 to per_domain - 1 do
            match deq () with
            | Some x -> note consumed x
            | None -> ()
          done)
  in
  ignore results;
  (* drain what's left *)
  let rec drain acc = match deq () with Some x -> drain (x :: acc) | None -> acc in
  let leftover = drain [] in
  let consumed = Atomic.get consumed and produced = Atomic.get produced in
  let sort = List.sort compare in
  Alcotest.(check (list int))
    (name ^ ": conservation")
    (sort produced)
    (sort (consumed @ leftover));
  Alcotest.(check int)
    (name ^ ": no duplicates")
    (List.length (consumed @ leftover))
    (List.length (List.sort_uniq compare (consumed @ leftover)))

let test_lock_free_universal_queue () =
  let q = UQ.create () in
  queue_stress "lock-free universal queue"
    (fun x -> ignore (UQ.apply q (Seq_objects.Queue_of_int.Enq x)))
    (fun () ->
      match UQ.apply q Seq_objects.Queue_of_int.Deq with
      | Seq_objects.Queue_of_int.Deqd x -> Some x
      | Seq_objects.Queue_of_int.Empty -> None
      | Seq_objects.Queue_of_int.Enqueued -> None)

let test_wait_free_universal_queue () =
  let q = WQ.create ~n:domains () in
  let pid_key = Domain.DLS.new_key (fun () -> -1) in
  let apply_with pid op =
    ignore pid_key;
    WQ.apply q ~pid op
  in
  (* run with explicit pids via run_domains *)
  let per_domain = 100 in
  let producers = domains / 2 in
  let outputs =
    P.run_domains domains (fun pid ->
        if pid < producers then
          List.init per_domain (fun i ->
              let item = (pid * 1_000_000) + i in
              ignore (apply_with pid (Seq_objects.Queue_of_int.Enq item));
              `Produced item)
        else
          List.filter_map
            (fun _ ->
              match apply_with pid Seq_objects.Queue_of_int.Deq with
              | Seq_objects.Queue_of_int.Deqd x -> Some (`Consumed x)
              | _ -> None)
            (List.init per_domain Fun.id))
  in
  let all = List.concat outputs in
  let produced =
    List.filter_map (function `Produced x -> Some x | _ -> None) all
  in
  let consumed =
    List.filter_map (function `Consumed x -> Some x | _ -> None) all
  in
  (* drain remaining via pid 0 *)
  let rec drain acc =
    match WQ.apply q ~pid:0 Seq_objects.Queue_of_int.Deq with
    | Seq_objects.Queue_of_int.Deqd x -> drain (x :: acc)
    | _ -> acc
  in
  let leftover = drain [] in
  let sort = List.sort compare in
  Alcotest.(check (list int)) "wait-free universal queue: conservation"
    (sort produced)
    (sort (consumed @ leftover))

let test_locked_universal_queue () =
  let q = LQ.create () in
  queue_stress "locked queue baseline"
    (fun x -> ignore (LQ.apply q (Seq_objects.Queue_of_int.Enq x)))
    (fun () ->
      match LQ.apply q Seq_objects.Queue_of_int.Deq with
      | Seq_objects.Queue_of_int.Deqd x -> Some x
      | _ -> None)

let test_universal_counter_exact () =
  let c = UC.create () in
  let per_domain = 500 in
  let _ =
    P.run_domains domains (fun _ ->
        for _ = 1 to per_domain do
          ignore (UC.apply c Seq_objects.Counter.Incr)
        done)
  in
  Alcotest.(check int) "exact count" (domains * per_domain)
    (UC.apply c Seq_objects.Counter.Read)

let test_universal_counter_results_distinct () =
  (* incr returns the new value; linearizability ⇒ all distinct *)
  let c = UC.create () in
  let per_domain = 300 in
  let results =
    P.run_domains domains (fun _ ->
        List.init per_domain (fun _ -> UC.apply c Seq_objects.Counter.Incr))
  in
  let all = List.concat results in
  Alcotest.(check int) "distinct increments" (List.length all)
    (List.length (List.sort_uniq compare all))

let test_ledger_conservation () =
  let module UL = Universal_rt.Lock_free (Seq_objects.Ledger) in
  let l = UL.create () in
  ignore (UL.apply l (Seq_objects.Ledger.Open ("a", 1000)));
  ignore (UL.apply l (Seq_objects.Ledger.Open ("b", 1000)));
  let _ =
    P.run_domains domains (fun pid ->
        for i = 1 to 200 do
          let src, dst = if (pid + i) mod 2 = 0 then ("a", "b") else ("b", "a") in
          ignore (UL.apply l (Seq_objects.Ledger.Transfer { src; dst; amount = 7 }))
        done)
  in
  Alcotest.(check int) "money conserved" 2000
    (Seq_objects.Ledger.total (UL.read l))

(* --- baselines --- *)

let test_treiber_stack () =
  let s = Baselines.Treiber_stack.make () in
  let per_domain = 200 in
  let _ =
    P.run_domains domains (fun pid ->
        for i = 0 to per_domain - 1 do
          Baselines.Treiber_stack.push s ((pid * 1000) + i)
        done)
  in
  let rec drain acc =
    match Baselines.Treiber_stack.pop s with
    | Some x -> drain (x :: acc)
    | None -> acc
  in
  let all = drain [] in
  Alcotest.(check int) "all items present" (domains * per_domain)
    (List.length (List.sort_uniq compare all))

let test_michael_scott_queue () =
  let q = Baselines.Michael_scott_queue.make () in
  let per_domain = 200 in
  let _ =
    P.run_domains domains (fun pid ->
        for i = 0 to per_domain - 1 do
          Baselines.Michael_scott_queue.enqueue q ((pid * 1000) + i)
        done)
  in
  let rec drain acc =
    match Baselines.Michael_scott_queue.dequeue q with
    | Some x -> drain (x :: acc)
    | None -> acc
  in
  let all = List.rev (drain []) in
  Alcotest.(check int) "all items present" (domains * per_domain)
    (List.length (List.sort_uniq compare all));
  (* per-producer FIFO: each producer's items come out in order *)
  for pid = 0 to domains - 1 do
    let mine = List.filter (fun x -> x / 1000 = pid) all in
    Alcotest.(check (list int))
      (Fmt.str "producer %d in order" pid)
      (List.sort compare mine) mine
  done

(* --- recorder + linearizability of runtime histories --- *)

let test_runtime_history_linearizable () =
  let open Wfs_spec in
  let spec = Collections.counter ~name:"c" () in
  let c = UC.create () in
  let recorder = Recorder.create ~capacity:10_000 in
  let per_domain = 5 in
  let _ =
    P.run_domains 3 (fun pid ->
        for _ = 1 to per_domain do
          Recorder.invoke recorder ~pid ~obj:"c" Collections.incr;
          let res = UC.apply c Seq_objects.Counter.Incr in
          Recorder.respond recorder ~pid ~obj:"c" (Value.int res)
        done)
  in
  let history = Recorder.history recorder in
  Alcotest.(check bool) "well-formed" true
    (Wfs_history.History.well_formed history);
  Alcotest.(check bool) "linearizable" true
    (Wfs_history.Linearizability.is_linearizable [ ("c", spec) ] history)

let test_locked_queue_history_linearizable () =
  let open Wfs_spec in
  let spec = Queues.fifo ~name:"q" ~items:[] () in
  let q = LQ.create () in
  let recorder = Recorder.create ~capacity:10_000 in
  let _ =
    P.run_domains 3 (fun pid ->
        for i = 1 to 4 do
          let item = (pid * 100) + i in
          Recorder.invoke recorder ~pid ~obj:"q" (Queues.enq (Value.int item));
          ignore (LQ.apply q (Seq_objects.Queue_of_int.Enq item));
          Recorder.respond recorder ~pid ~obj:"q" Value.unit;
          Recorder.invoke recorder ~pid ~obj:"q" Queues.deq;
          let res =
            match LQ.apply q Seq_objects.Queue_of_int.Deq with
            | Seq_objects.Queue_of_int.Deqd x -> Value.int x
            | _ -> Queues.empty_result
          in
          Recorder.respond recorder ~pid ~obj:"q" res
        done)
  in
  let history = Recorder.history recorder in
  Alcotest.(check bool) "linearizable" true
    (Wfs_history.Linearizability.is_linearizable [ ("q", spec) ] history)

let suite =
  [
    ( "runtime.primitives",
      [
        Alcotest.test_case "tas single winner" `Quick test_tas_single_winner;
        Alcotest.test_case "faa linearizes" `Quick test_faa_counts;
        Alcotest.test_case "swap token" `Quick test_swap_token;
        Alcotest.test_case "cas paper semantics" `Quick test_cas_paper_semantics;
      ] );
    ( "runtime.consensus",
      [
        Alcotest.test_case "one-shot agreement x50" `Quick
          test_one_shot_agreement;
        Alcotest.test_case "tas 2-consensus x200" `Quick test_tas_two_agreement;
        Alcotest.test_case "unbounded rounds" `Quick
          test_unbounded_rounds_independent;
      ] );
    ( "runtime.fetch-and-cons",
      [
        Alcotest.test_case "cas-based chains" `Quick test_cas_fac;
        Alcotest.test_case "swap-based chains (Figs 4-3/4-4)" `Quick
          test_swap_fac;
        Alcotest.test_case "rounds-based coherent (Fig 4-5)" `Quick
          test_rounds_fac_views_coherent;
      ] );
    ( "runtime.universal",
      [
        Alcotest.test_case "lock-free queue stress" `Quick
          test_lock_free_universal_queue;
        Alcotest.test_case "wait-free queue stress" `Quick
          test_wait_free_universal_queue;
        Alcotest.test_case "locked queue baseline" `Quick
          test_locked_universal_queue;
        Alcotest.test_case "counter exact" `Quick test_universal_counter_exact;
        Alcotest.test_case "counter increments distinct" `Quick
          test_universal_counter_results_distinct;
        Alcotest.test_case "ledger conservation" `Quick
          test_ledger_conservation;
      ] );
    ( "runtime.baselines",
      [
        Alcotest.test_case "treiber stack" `Quick test_treiber_stack;
        Alcotest.test_case "michael-scott queue" `Quick
          test_michael_scott_queue;
      ] );
    ( "runtime.linearizability",
      [
        Alcotest.test_case "universal counter history" `Quick
          test_runtime_history_linearizable;
        Alcotest.test_case "locked queue history" `Quick
          test_locked_queue_history_linearizable;
      ] );
  ]

(* --- recorder: ticket order, capacity boundary, around pairing --- *)

let test_recorder_ticket_order_real_time () =
  let open Wfs_spec in
  (* concurrent: every event lands, and each process's own events keep
     program order (INVOKE/RESPOND alternation = well-formedness) *)
  let r = Recorder.create ~capacity:64 in
  let _ =
    P.run_domains 3 (fun pid ->
        for i = 1 to 5 do
          Recorder.invoke r ~pid ~obj:"c" Collections.incr;
          Recorder.respond r ~pid ~obj:"c" (Value.int i)
        done)
  in
  let h = Recorder.history r in
  Alcotest.(check int) "all events present" 30 (List.length h);
  Alcotest.(check bool) "well-formed" true (Wfs_history.History.well_formed h);
  (* sequential: an operation that responded strictly before another was
     invoked takes the earlier ticket — the real-time guarantee *)
  let r = Recorder.create ~capacity:4 in
  Recorder.invoke r ~pid:0 ~obj:"c" Collections.incr;
  Recorder.respond r ~pid:0 ~obj:"c" (Value.int 1);
  Recorder.invoke r ~pid:1 ~obj:"c" Collections.incr;
  match Recorder.history r with
  | [
   Wfs_history.Event.Invoke { pid = p0; _ };
   Wfs_history.Event.Respond _;
   Wfs_history.Event.Invoke { pid = p1; _ };
  ] ->
      Alcotest.(check int) "earlier op first" 0 p0;
      Alcotest.(check int) "later op last" 1 p1
  | h ->
      Alcotest.fail
        (Fmt.str "unexpected ticket order (%d events)" (List.length h))

let test_recorder_capacity_boundary () =
  let open Wfs_spec in
  let r = Recorder.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Recorder.capacity r);
  Alcotest.(check int) "headroom full" 2 (Recorder.headroom r);
  Recorder.invoke r ~pid:0 ~obj:"c" Collections.incr;
  Alcotest.(check int) "headroom after one" 1 (Recorder.headroom r);
  Recorder.respond r ~pid:0 ~obj:"c" Value.unit;
  Alcotest.(check int) "used at capacity" 2 (Recorder.used r);
  Alcotest.(check int) "headroom exhausted" 0 (Recorder.headroom r);
  (match Recorder.invoke r ~pid:1 ~obj:"c" Collections.incr with
  | exception Recorder.Capacity_exceeded -> ()
  | () -> Alcotest.fail "expected Capacity_exceeded past the boundary");
  (* the overflow does not corrupt what was recorded *)
  Alcotest.(check int) "history intact" 2 (List.length (Recorder.history r));
  Alcotest.(check int) "used stays clamped" 2 (Recorder.used r)

let test_recorder_around_pairing () =
  let open Wfs_spec in
  let r = Recorder.create ~capacity:8 in
  let result =
    Recorder.around r ~pid:2 ~obj:"q" ~op:Queues.deq ~encode_res:Value.int
      (fun () -> 41 + 1)
  in
  Alcotest.(check int) "result passes through" 42 result;
  match Recorder.history r with
  | [
   Wfs_history.Event.Invoke { pid = pi; obj = oi; op };
   Wfs_history.Event.Respond { pid = pr; obj = orr; res };
  ] ->
      Alcotest.(check int) "invoke pid" 2 pi;
      Alcotest.(check int) "respond pid" 2 pr;
      Alcotest.(check string) "invoke obj" "q" oi;
      Alcotest.(check string) "respond obj" "q" orr;
      Alcotest.(check bool) "op recorded" true (Op.equal op Queues.deq);
      Alcotest.(check bool) "result encoded" true
        (Value.equal res (Value.int 42))
  | h ->
      Alcotest.fail
        (Fmt.str "expected one INVOKE/RESPOND pair, got %d events"
           (List.length h))

let test_recorder_headroom_gauge () =
  let open Wfs_spec in
  let r = Recorder.create ~capacity:10 in
  Wfs_obs.Metrics.with_hot (fun () ->
      Recorder.invoke r ~pid:0 ~obj:"c" Collections.incr;
      Recorder.respond r ~pid:0 ~obj:"c" Value.unit);
  Alcotest.(check (option int))
    "gauge tracks remaining slots" (Some 8)
    (Wfs_obs.Metrics.gauge_value "recorder.headroom")

let test_recorder_around_exception_path () =
  let open Wfs_spec in
  let r = Recorder.create ~capacity:8 in
  (match
     Recorder.around r ~pid:1 ~obj:"q" ~op:Queues.deq ~encode_res:Value.int
       (fun () -> failwith "boom")
   with
  | exception Failure m -> Alcotest.(check string) "exception re-raised" "boom" m
  | _ -> Alcotest.fail "expected the Failure to propagate");
  let h = Recorder.history r in
  (match h with
  | [ Wfs_history.Event.Invoke _; Wfs_history.Event.Respond { res; _ } ] ->
      Alcotest.(check bool) "crashed response recorded" true
        (Value.equal res Wfs_history.Event.crashed_res)
  | _ ->
      Alcotest.fail
        (Fmt.str "expected INVOKE then crashed RESPOND, got %d events"
           (List.length h)));
  Alcotest.(check bool) "well-formed" true (Wfs_history.History.well_formed h);
  let ops = Wfs_history.History.operations h in
  Alcotest.(check int) "the crashed op is pending, not dangling" 1
    (List.length (List.filter Wfs_history.History.is_pending ops));
  (* a later operation of the same process still records cleanly *)
  Alcotest.(check int) "recorder usable afterwards" 3
    (Recorder.around r ~pid:1 ~obj:"q" ~op:Queues.deq ~encode_res:Value.int
       (fun () -> 3))

let recorder_suite =
  ( "runtime.recorder",
    [
      Alcotest.test_case "ticket order real-time-consistent" `Quick
        test_recorder_ticket_order_real_time;
      Alcotest.test_case "capacity boundary" `Quick
        test_recorder_capacity_boundary;
      Alcotest.test_case "around pairs INVOKE/RESPOND" `Quick
        test_recorder_around_pairing;
      Alcotest.test_case "headroom gauge when hot" `Quick
        test_recorder_headroom_gauge;
      Alcotest.test_case "exception leaves a pending op" `Quick
        test_recorder_around_exception_path;
    ] )

let test_lamport_capacity_edges () =
  List.iter
    (fun capacity ->
      match Lamport_queue.create ~capacity with
      | exception Invalid_argument _ -> ()
      | _ ->
          Alcotest.fail
            (Fmt.str "capacity %d should be rejected" capacity))
    [ 0; -1; Lamport_queue.max_capacity + 1; max_int ];
  (* requests round up to a power of two (allocating the true maximum
     would need gigabytes, so the upper edge is only checked for
     rejection above) *)
  Alcotest.(check int) "5 rounds to 8" 8
    (Lamport_queue.capacity (Lamport_queue.create ~capacity:5));
  Alcotest.(check int) "1 stays 1" 1
    (Lamport_queue.capacity (Lamport_queue.create ~capacity:1));
  Alcotest.(check int) "powers of two kept exactly" 16
    (Lamport_queue.capacity (Lamport_queue.create ~capacity:16))

let lamport_suite =
  ( "runtime.lamport-queue",
    [ Alcotest.test_case "capacity edges" `Quick test_lamport_capacity_edges ]
  )

let suite = suite @ [ recorder_suite; lamport_suite ]

(* --- reference-equivalence properties (single domain) ---

   Applied sequentially, each runtime construction must agree exactly
   with its sequential specification on random operation sequences. *)

let prop_universal_queue_matches_reference =
  QCheck2.Test.make ~name:"universal queue ≡ sequential reference" ~count:200
    QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 9))
    (fun choices ->
      let module Q = Universal_rt.Lock_free (Seq_objects.Queue_of_int) in
      let q = Q.create () in
      let reference = Queue.create () in
      List.for_all
        (fun c ->
          if c < 6 then begin
            (* enqueue c *)
            Queue.add c reference;
            Q.apply q (Seq_objects.Queue_of_int.Enq c)
            = Seq_objects.Queue_of_int.Enqueued
          end
          else
            let expected =
              match Queue.take_opt reference with
              | Some x -> Seq_objects.Queue_of_int.Deqd x
              | None -> Seq_objects.Queue_of_int.Empty
            in
            Q.apply q Seq_objects.Queue_of_int.Deq = expected)
        choices)

let prop_lamport_queue_matches_reference =
  QCheck2.Test.make ~name:"lamport queue ≡ bounded fifo reference" ~count:200
    QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 9))
    (fun choices ->
      let q = Lamport_queue.create ~capacity:8 in
      let reference = Queue.create () in
      let capacity = Lamport_queue.capacity q in
      List.for_all
        (fun c ->
          if c < 6 then begin
            let fits = Queue.length reference < capacity in
            if fits then Queue.add c reference;
            Lamport_queue.enqueue q c = fits
          end
          else Lamport_queue.dequeue q = Queue.take_opt reference)
        choices)

let prop_ledger_matches_itself_via_locked =
  QCheck2.Test.make ~name:"lock-free ledger ≡ locked ledger" ~count:150
    QCheck2.Gen.(list_size (int_range 0 25) (pair (int_range 0 4) (int_range 1 30)))
    (fun choices ->
      let module A = Universal_rt.Lock_free (Seq_objects.Ledger) in
      let module B = Universal_rt.Locked (Seq_objects.Ledger) in
      let a = A.create () and b = B.create () in
      let op_of (k, amt) =
        match k with
        | 0 -> Seq_objects.Ledger.Open ("x", amt)
        | 1 -> Seq_objects.Ledger.Deposit ("x", amt)
        | 2 -> Seq_objects.Ledger.Withdraw ("x", amt)
        | 3 -> Seq_objects.Ledger.Balance "x"
        | _ -> Seq_objects.Ledger.Transfer { src = "x"; dst = "x"; amount = amt }
      in
      List.for_all (fun c -> A.apply a (op_of c) = B.apply b (op_of c)) choices)

let ref_qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_universal_queue_matches_reference;
      prop_lamport_queue_matches_reference;
      prop_ledger_matches_itself_via_locked;
    ]

let suite = suite @ [ ("runtime.reference-equivalence", ref_qsuite) ]

(* --- wait-free runtime bugfix regressions --- *)

(* Announce tickets must be per-object state: with a functor-level
   counter, every object minted from one instantiation shared a single
   stream, so a second object's tickets started wherever the first
   left off. *)
let test_tickets_independent_batched () =
  let module W = Universal_rt.Wait_free (Seq_objects.Counter) in
  let a = W.create ~n:2 () and b = W.create ~n:2 () in
  for _ = 1 to 5 do
    ignore (W.apply a ~pid:0 Seq_objects.Counter.Incr)
  done;
  for _ = 1 to 3 do
    ignore (W.apply b ~pid:0 Seq_objects.Counter.Incr)
  done;
  Alcotest.(check int) "first object's tickets" 5 (W.tickets_issued a);
  Alcotest.(check int) "second object's tickets" 3 (W.tickets_issued b)

(* the truncation window must be positive (wfs serve and wfs load map
   the rejection to exit 2); a window of one node is the smallest legal
   one and still serves every operation *)
let test_window_must_be_positive () =
  let module WF = Universal_rt.Wait_free (Seq_objects.Counter) in
  List.iter
    (fun window ->
      Alcotest.check_raises
        (Fmt.str "window = %d" window)
        (Invalid_argument "Wait_free.create: window")
        (fun () -> ignore (WF.create ~window ~n:1 ())))
    [ 0; -1 ];
  let wf = WF.create ~window:1 ~n:1 () in
  for _ = 1 to 5 do
    ignore (WF.apply wf ~pid:0 Seq_objects.Counter.Incr)
  done;
  Alcotest.(check int) "window = 1 length" 5 (WF.length wf);
  Alcotest.(check int) "window = 1 state" 5 (WF.read wf)

(* All the log-length accountings agree on the same quantity: after the
   same k-operation history, every construction reports k, and the
   sim-side replay of a k-operation log counts k replayed operations
   (the operation being answered is not itself part of the replay —
   which is why the §4.1 truncating construction's replay bound is n,
   not n+1). *)
let test_log_length_accounting_agrees () =
  let k = 10 in
  let module LF = Universal_rt.Lock_free (Seq_objects.Counter) in
  let module WF = Universal_rt.Wait_free (Seq_objects.Counter) in
  let lf = LF.create () and wf = WF.create ~window:4 ~n:1 () in
  for _ = 1 to k do
    ignore (LF.apply lf Seq_objects.Counter.Incr);
    ignore (WF.apply wf ~pid:0 Seq_objects.Counter.Incr)
  done;
  Alcotest.(check int) "lock-free length" k (LF.length lf);
  Alcotest.(check int) "wait-free (batched) length" k (WF.length wf);
  Alcotest.(check int) "states agree" (LF.read lf) (WF.read wf);
  let open Wfs_spec in
  let target = Collections.counter () in
  let log =
    List.init k (fun i ->
        Wfs_universal.Replay.op_entry ~pid:0 ~seq:i Collections.incr)
  in
  let state, replayed = Wfs_universal.Replay.reconstruct target log in
  Alcotest.(check int) "replay of a k-op log counts k" k replayed;
  Alcotest.(check bool) "replayed state" true (Value.equal state (Value.int k));
  let v =
    Wfs_universal.Truncating_universal.verify ~target
      ~scripts:[| [ Collections.incr; Collections.incr; Collections.incr ] |]
      ()
  in
  Alcotest.(check bool) "truncating construction verifies" true v.ok;
  Alcotest.(check bool) "truncating replay within n"
    true
    (v.max_replay <= 1)

(* the truncating log must not grow: under sustained multi-domain load
   the retained window stays within 2*window+1 (the transient factor 2
   covers an in-flight snapshot fill) *)
let test_bounded_log_memory () =
  let module W = Universal_rt.Wait_free (Seq_objects.Counter) in
  let window = 8 in
  let w = W.create ~window ~n:domains () in
  let per_domain = 2000 in
  let maxes =
    P.run_domains domains (fun pid ->
        let worst = ref 0 in
        for i = 1 to per_domain do
          ignore (W.apply w ~pid Seq_objects.Counter.Incr);
          if i mod 64 = 0 then worst := max !worst (W.retained w)
        done;
        !worst)
  in
  let worst = List.fold_left max (W.retained w) maxes in
  Alcotest.(check bool)
    (Printf.sprintf "retained %d <= %d" worst ((2 * window) + 1))
    true
    (worst <= (2 * window) + 1);
  Alcotest.(check int) "no op lost" (domains * per_domain) (W.length w);
  Alcotest.(check int) "counter value" (domains * per_domain) (W.read w);
  Alcotest.(check bool) "watermark advanced" true (W.watermark w > 0)

let bugfix_suite =
  ( "runtime.universal-service-fixes",
    [
      Alcotest.test_case "tickets are per-object (batched)" `Quick
        test_tickets_independent_batched;
      Alcotest.test_case "log-length accounting agrees" `Quick
        test_log_length_accounting_agrees;
      Alcotest.test_case "bounded log memory" `Quick test_bounded_log_memory;
      Alcotest.test_case "window must be positive" `Quick
        test_window_must_be_positive;
    ] )

let suite = suite @ [ bugfix_suite ]
