(* Extensions beyond the paper's main line: randomized consensus (§5's
   open problem), Lamport's 1P/1C register queue (§3.3), and sequential
   consistency vs linearizability (§2.3). *)

open Wfs_spec

(* --- randomized consensus (simulated, adversarial coins) --- *)

let test_randomized_safety_exhaustive () =
  let v = Wfs_consensus.Randomized.verify_all_coins ~flips:2 () in
  Alcotest.(check bool) "safe over all schedules and coins" true
    v.Wfs_consensus.Randomized.ok;
  Alcotest.(check int) "4 inputs x 4x4 coin assignments" (4 * 4 * 4)
    v.Wfs_consensus.Randomized.configurations

let test_randomized_safety_flips3 () =
  let v = Wfs_consensus.Randomized.verify_all_coins ~flips:3 () in
  Alcotest.(check bool) "safe at flips=3" true v.Wfs_consensus.Randomized.ok

(* a negative coin count is bad input: there are no coin lists of that
   length to enumerate *)
let test_randomized_rejects_negative_flips () =
  Alcotest.check_raises "verify_all_coins"
    (Invalid_argument
       "Randomized.verify_all_coins: flips must be >= 0 (got -1)") (fun () ->
      ignore (Wfs_consensus.Randomized.verify_all_coins ~flips:(-1) ()));
  Alcotest.check_raises "run"
    (Invalid_argument "Randomized.run: flips must be >= 0 (got -1)")
    (fun () ->
      ignore
        (Wfs_consensus.Randomized.run ~flips:(-1) ~inputs:[| false; true |]
           ~seed:1 ()))

let test_randomized_same_inputs_never_abort () =
  (* with equal inputs there is never a conflict, hence no coin is
     needed: every schedule decides, even with zero coins *)
  let cfg =
    Wfs_consensus.Randomized.config ~inputs:[| true; true |]
      ~coins:[| []; [] |]
  in
  let stats = Wfs_sim.Explorer.explore cfg in
  Alcotest.(check bool) "wait-free" true (Wfs_sim.Explorer.wait_free stats);
  List.iter
    (fun (t : Wfs_sim.Explorer.terminal) ->
      Array.iter
        (fun d ->
          Alcotest.(check bool)
            "decides true" true
            (match d with
            | Some d -> Value.equal d (Value.bool true)
            | None -> false))
        t.Wfs_sim.Explorer.decisions)
    stats.Wfs_sim.Explorer.terminals

let test_randomized_runs_decide () =
  (* with a long coin budget, seeded runs essentially always decide *)
  let decided = ref 0 in
  for seed = 1 to 50 do
    let outcome =
      Wfs_consensus.Randomized.run ~flips:30 ~inputs:[| false; true |] ~seed ()
    in
    let ds = List.map snd outcome.Wfs_sim.Runner.decisions in
    let real =
      List.filter
        (fun d -> not (Value.equal d Wfs_consensus.Randomized.aborted))
        ds
    in
    if List.length real = 2 then begin
      incr decided;
      match real with
      | [ a; b ] ->
          Alcotest.(check bool) "agree" true (Value.equal a b)
      | _ -> ()
    end
  done;
  Alcotest.(check bool)
    (Fmt.str "most runs decide (%d/50)" !decided)
    true (!decided >= 45)

(* --- randomized consensus (runtime) --- *)

let test_randomized_runtime () =
  for trial = 1 to 300 do
    let t = Wfs_runtime.Randomized_rt.create () in
    let inputs = [| trial mod 2 = 0; trial mod 3 = 0 |] in
    let results =
      Wfs_runtime.Primitives.run_domains 2 (fun pid ->
          let rng = Random.State.make [| trial; pid |] in
          Wfs_runtime.Randomized_rt.decide t ~pid ~rng inputs.(pid))
    in
    match results with
    | [ (d0, _); (d1, _) ] ->
        Alcotest.(check bool) "agreement" d0 d1;
        Alcotest.(check bool) "validity" true
          (d0 = inputs.(0) || d0 = inputs.(1))
    | _ -> Alcotest.fail "expected two decisions"
  done

(* --- Lamport 1P/1C queue --- *)

let test_lamport_sequential () =
  let q = Wfs_runtime.Lamport_queue.create ~capacity:4 in
  Alcotest.(check bool) "empty" true (Wfs_runtime.Lamport_queue.is_empty q);
  Alcotest.(check bool) "enq 1" true (Wfs_runtime.Lamport_queue.enqueue q 1);
  Alcotest.(check bool) "enq 2" true (Wfs_runtime.Lamport_queue.enqueue q 2);
  Alcotest.(check int) "length" 2 (Wfs_runtime.Lamport_queue.length q);
  Alcotest.(check (option int)) "deq 1" (Some 1)
    (Wfs_runtime.Lamport_queue.dequeue q);
  Alcotest.(check (option int)) "deq 2" (Some 2)
    (Wfs_runtime.Lamport_queue.dequeue q);
  Alcotest.(check (option int)) "deq empty" None
    (Wfs_runtime.Lamport_queue.dequeue q)

let test_lamport_full () =
  let q = Wfs_runtime.Lamport_queue.create ~capacity:2 in
  Alcotest.(check int) "rounded capacity" 2 (Wfs_runtime.Lamport_queue.capacity q);
  Alcotest.(check bool) "enq 1" true (Wfs_runtime.Lamport_queue.enqueue q 1);
  Alcotest.(check bool) "enq 2" true (Wfs_runtime.Lamport_queue.enqueue q 2);
  Alcotest.(check bool) "full" true (Wfs_runtime.Lamport_queue.is_full q);
  Alcotest.(check bool) "enq rejected" false
    (Wfs_runtime.Lamport_queue.enqueue q 3)

let test_lamport_concurrent_fifo () =
  (* one producer domain, one consumer domain: items arrive complete and
     in order — wait-free from registers alone (§3.3) *)
  let q = Wfs_runtime.Lamport_queue.create ~capacity:64 in
  let items = 50_000 in
  let results =
    Wfs_runtime.Primitives.run_domains 2 (fun pid ->
        if pid = 0 then begin
          let sent = ref 0 in
          while !sent < items do
            if Wfs_runtime.Lamport_queue.enqueue q !sent then incr sent
            else Domain.cpu_relax ()
          done;
          []
        end
        else begin
          let got = ref [] in
          let count = ref 0 in
          while !count < items do
            match Wfs_runtime.Lamport_queue.dequeue q with
            | Some x ->
                got := x :: !got;
                incr count
            | None -> Domain.cpu_relax ()
          done;
          List.rev !got
        end)
  in
  match results with
  | [ _; received ] ->
      Alcotest.(check int) "all received" items (List.length received);
      Alcotest.(check bool) "in fifo order" true
        (List.for_all2 ( = ) received (List.init items Fun.id))
  | _ -> Alcotest.fail "expected two domains"

(* --- sequential consistency --- *)

let inv pid obj op = Wfs_history.Event.invoke ~pid ~obj op
let rsp pid obj res = Wfs_history.Event.respond ~pid ~obj res

let queue_spec name = Queues.fifo ~name ~items:[ Value.int 1; Value.int 2 ] ()

let test_sc_weaker_than_lin () =
  (* a stale read violates linearizability but not sequential
     consistency: program order alone permits reordering across
     processes *)
  let reg =
    Registers.atomic ~name:"r" ~init:(Value.int 0) [ Value.int 0; Value.int 1 ]
  in
  let h =
    [
      inv 1 "r" (Registers.write (Value.int 1));
      rsp 1 "r" Value.unit;
      inv 0 "r" Registers.read;
      rsp 0 "r" (Value.int 0);
    ]
  in
  Alcotest.(check bool) "not linearizable" false
    (Wfs_history.Linearizability.is_linearizable [ ("r", reg) ] h);
  Alcotest.(check bool) "but sequentially consistent" true
    (Wfs_history.Sequential_consistency.is_sequentially_consistent reg h)

let test_sc_program_order_enforced () =
  (* within one process, order cannot be rewritten *)
  let q = queue_spec "q" in
  let h =
    [
      inv 0 "q" (Queues.enq (Value.int 1));
      rsp 0 "q" Value.unit;
      inv 0 "q" (Queues.enq (Value.int 2));
      rsp 0 "q" Value.unit;
      inv 0 "q" Queues.deq;
      rsp 0 "q" (Value.int 2);
    ]
  in
  Alcotest.(check bool) "deq of 2 first is not SC" false
    (Wfs_history.Sequential_consistency.is_sequentially_consistent q h)

(* The classic locality failure (the paper: "unlike sequential
   consistency ... linearizability is a local property").  Two queues p
   and q; each object's subhistory is SC on its own, but no single
   witness serializes both. *)
let test_sc_not_local () =
  let p = queue_spec "p" and q = queue_spec "q" in
  let h =
    [
      (* process 0: enq p 1; enq q 1; deq p -> 2 *)
      inv 0 "p" (Queues.enq (Value.int 1));
      rsp 0 "p" Value.unit;
      inv 0 "q" (Queues.enq (Value.int 1));
      rsp 0 "q" Value.unit;
      inv 0 "p" Queues.deq;
      rsp 0 "p" (Value.int 2);
      (* process 1: enq q 2; enq p 2; deq q -> 1 *)
      inv 1 "q" (Queues.enq (Value.int 2));
      rsp 1 "q" Value.unit;
      inv 1 "p" (Queues.enq (Value.int 2));
      rsp 1 "p" Value.unit;
      inv 1 "q" Queues.deq;
      rsp 1 "q" (Value.int 1);
    ]
  in
  let sc_p =
    Wfs_history.Sequential_consistency.check_object p
      (Wfs_history.History.project_obj "p" h)
  in
  let sc_q =
    Wfs_history.Sequential_consistency.check_object q
      (Wfs_history.History.project_obj "q" h)
  in
  Alcotest.(check bool) "p alone is SC" true
    sc_p.Wfs_history.Sequential_consistency.consistent;
  Alcotest.(check bool) "q alone is SC" true
    sc_q.Wfs_history.Sequential_consistency.consistent;
  let global =
    Wfs_history.Sequential_consistency.check_global
      [ ("p", p); ("q", q) ]
      h
  in
  Alcotest.(check bool) "but globally NOT SC (locality fails)" false
    global.Wfs_history.Sequential_consistency.consistent

let test_sc_witness_legal () =
  let q = queue_spec "q" in
  let h =
    [
      inv 0 "q" (Queues.enq (Value.int 1));
      rsp 0 "q" Value.unit;
      inv 1 "q" Queues.deq;
      rsp 1 "q" (Value.int 1);
    ]
  in
  match Wfs_history.Sequential_consistency.check_object q h with
  | { Wfs_history.Sequential_consistency.consistent = true; witness = Some w } ->
      Alcotest.(check bool) "witness legal" true
        (Wfs_history.History.check_sequential q w)
  | _ -> Alcotest.fail "expected SC with witness"

(* linearizable implies sequentially consistent (per object) *)
let prop_lin_implies_sc =
  QCheck2.Test.make ~name:"linearizable => sequentially consistent" ~count:100
    QCheck2.Gen.(list_size (int_range 0 8) (pair (int_range 0 1) (int_range 0 3)))
    (fun choices ->
      let spec = queue_spec "q" in
      let menu = Array.of_list spec.Object_spec.menu in
      (* build a sequential (hence linearizable) history *)
      let _, events =
        List.fold_left
          (fun (state, acc) (pid, c) ->
            let op = menu.(c mod Array.length menu) in
            let state', res = Object_spec.apply spec state op in
            (state', rsp pid "q" res :: inv pid "q" op :: acc))
          (spec.Object_spec.init, [])
          choices
      in
      let h = List.rev events in
      (not (Wfs_history.Linearizability.is_linearizable [ ("q", spec) ] h))
      || Wfs_history.Sequential_consistency.is_sequentially_consistent spec h)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_lin_implies_sc ]

let suite =
  [
    ( "ext.randomized",
      [
        Alcotest.test_case "exhaustive safety, flips=2" `Quick
          test_randomized_safety_exhaustive;
        Alcotest.test_case "exhaustive safety, flips=3" `Quick
          test_randomized_safety_flips3;
        Alcotest.test_case "negative flips rejected" `Quick
          test_randomized_rejects_negative_flips;
        Alcotest.test_case "equal inputs never abort" `Quick
          test_randomized_same_inputs_never_abort;
        Alcotest.test_case "seeded runs decide" `Quick
          test_randomized_runs_decide;
        Alcotest.test_case "runtime agreement x300" `Quick
          test_randomized_runtime;
      ] );
    ( "ext.lamport-queue",
      [
        Alcotest.test_case "sequential semantics" `Quick test_lamport_sequential;
        Alcotest.test_case "full queue" `Quick test_lamport_full;
        Alcotest.test_case "concurrent 1P/1C fifo" `Quick
          test_lamport_concurrent_fifo;
      ] );
    ( "ext.sequential-consistency",
      [
        Alcotest.test_case "weaker than linearizability" `Quick
          test_sc_weaker_than_lin;
        Alcotest.test_case "program order enforced" `Quick
          test_sc_program_order_enforced;
        Alcotest.test_case "locality failure" `Quick test_sc_not_local;
        Alcotest.test_case "witness legality" `Quick test_sc_witness_legal;
      ] );
    ("ext.properties", qsuite);
  ]
