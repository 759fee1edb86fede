(* Histories, well-formedness and the linearizability checker. *)

open Wfs_spec
open Wfs_history

let inv pid obj op = Event.invoke ~pid ~obj op
let rsp pid obj res = Event.respond ~pid ~obj res

let reg_env =
  [ ("r", Registers.atomic ~name:"r" ~init:(Value.int 0)
            [ Value.int 0; Value.int 1; Value.int 2 ]) ]

let q_env = [ ("q", Queues.fifo ~name:"q" ~items:[ Value.int 1; Value.int 2 ] ()) ]

let test_well_formed () =
  let h =
    [
      inv 0 "r" Registers.read;
      inv 1 "r" (Registers.write (Value.int 1));
      rsp 0 "r" (Value.int 0);
      rsp 1 "r" Value.unit;
    ]
  in
  Alcotest.(check bool) "interleaved ok" true (History.well_formed h);
  let bad = [ inv 0 "r" Registers.read; inv 0 "r" Registers.read ] in
  Alcotest.(check bool) "double invoke" false (History.well_formed bad);
  let bad2 = [ rsp 0 "r" (Value.int 0) ] in
  Alcotest.(check bool) "response first" false (History.well_formed bad2)

let test_operations_extraction () =
  let h =
    [
      inv 0 "r" Registers.read;
      inv 1 "r" (Registers.write (Value.int 1));
      rsp 1 "r" Value.unit;
      rsp 0 "r" (Value.int 1);
      inv 1 "r" Registers.read;
    ]
  in
  let ops = History.operations h in
  Alcotest.(check int) "three operations" 3 (List.length ops);
  let pending = List.filter History.is_pending ops in
  Alcotest.(check int) "one pending" 1 (List.length pending)

let test_precedes () =
  let h =
    [
      inv 0 "r" Registers.read;
      rsp 0 "r" (Value.int 0);
      inv 1 "r" Registers.read;
      rsp 1 "r" (Value.int 0);
    ]
  in
  match History.operations h with
  | [ a; b ] ->
      Alcotest.(check bool) "a precedes b" true (History.precedes a b);
      Alcotest.(check bool) "b not precedes a" false (History.precedes b a)
  | _ -> Alcotest.fail "expected two operations"

(* A sequential history is linearizable iff responses match the spec. *)
let test_sequential_good () =
  let h =
    [
      inv 0 "r" (Registers.write (Value.int 1));
      rsp 0 "r" Value.unit;
      inv 0 "r" Registers.read;
      rsp 0 "r" (Value.int 1);
    ]
  in
  Alcotest.(check bool) "good" true (Linearizability.is_linearizable reg_env h)

let test_sequential_bad () =
  let h =
    [
      inv 0 "r" (Registers.write (Value.int 1));
      rsp 0 "r" Value.unit;
      inv 0 "r" Registers.read;
      rsp 0 "r" (Value.int 2);
    ]
  in
  Alcotest.(check bool) "bad read" false (Linearizability.is_linearizable reg_env h)

(* Overlapping operations may linearize in either order. *)
let test_overlap_reorders () =
  let h =
    [
      inv 0 "r" Registers.read;
      inv 1 "r" (Registers.write (Value.int 1));
      rsp 1 "r" Value.unit;
      rsp 0 "r" (Value.int 1);
    ]
  in
  Alcotest.(check bool)
    "read sees concurrent write" true
    (Linearizability.is_linearizable reg_env h);
  let h' =
    [
      inv 0 "r" Registers.read;
      inv 1 "r" (Registers.write (Value.int 1));
      rsp 1 "r" Value.unit;
      rsp 0 "r" (Value.int 0);
    ]
  in
  Alcotest.(check bool)
    "or misses it" true
    (Linearizability.is_linearizable reg_env h')

(* Real-time order must be respected: a read that starts after a write
   completed cannot miss it. *)
let test_realtime_respected () =
  let h =
    [
      inv 1 "r" (Registers.write (Value.int 1));
      rsp 1 "r" Value.unit;
      inv 0 "r" Registers.read;
      rsp 0 "r" (Value.int 0);
    ]
  in
  Alcotest.(check bool)
    "stale read rejected" false
    (Linearizability.is_linearizable reg_env h)

(* The paper's linearizability example shape: two concurrent deqs on a
   pre-loaded queue must take distinct items. *)
let test_queue_concurrent_deqs () =
  let preloaded =
    [
      ("q", Queues.fifo ~name:"q"
              ~initial:[ Value.int 1; Value.int 2 ]
              ~items:[ Value.int 1; Value.int 2 ] ());
    ]
  in
  let h which0 which1 =
    [
      inv 0 "q" Queues.deq;
      inv 1 "q" Queues.deq;
      rsp 0 "q" (Value.int which0);
      rsp 1 "q" (Value.int which1);
    ]
  in
  Alcotest.(check bool) "1/2 ok" true
    (Linearizability.is_linearizable preloaded (h 1 2));
  Alcotest.(check bool) "2/1 ok" true
    (Linearizability.is_linearizable preloaded (h 2 1));
  Alcotest.(check bool) "1/1 duplicates item" false
    (Linearizability.is_linearizable preloaded (h 1 1))

let test_pending_can_be_dropped () =
  let h = [ inv 0 "q" (Queues.enq (Value.int 1)) ] in
  Alcotest.(check bool) "pending enq ok" true
    (Linearizability.is_linearizable q_env h)

let test_pending_can_take_effect () =
  (* P0's enq never responds, but P1 dequeues the item: the pending enq
     must be linearized for the history to make sense. *)
  let h =
    [
      inv 0 "q" (Queues.enq (Value.int 1));
      inv 1 "q" Queues.deq;
      rsp 1 "q" (Value.int 1);
    ]
  in
  Alcotest.(check bool) "pending enq observed" true
    (Linearizability.is_linearizable q_env h)

let test_locality () =
  (* multi-object history: each object independently linearizable *)
  let env = reg_env @ q_env in
  let h =
    [
      inv 0 "r" (Registers.write (Value.int 1));
      inv 1 "q" (Queues.enq (Value.int 2));
      rsp 0 "r" Value.unit;
      rsp 1 "q" Value.unit;
      inv 0 "q" Queues.deq;
      rsp 0 "q" (Value.int 2);
      inv 1 "r" Registers.read;
      rsp 1 "r" (Value.int 1);
    ]
  in
  Alcotest.(check bool) "local check passes" true
    (Linearizability.is_linearizable env h)

let test_witness_is_legal () =
  let preloaded =
    Queues.fifo ~name:"q"
      ~initial:[ Value.int 1; Value.int 2 ]
      ~items:[ Value.int 1; Value.int 2 ] ()
  in
  let h =
    [
      inv 0 "q" Queues.deq;
      inv 1 "q" Queues.deq;
      rsp 0 "q" (Value.int 2);
      rsp 1 "q" (Value.int 1);
    ]
  in
  let verdict = Linearizability.check_object preloaded h in
  Alcotest.(check bool) "linearizable" true verdict.Linearizability.linearizable;
  match verdict.Linearizability.witness with
  | Some ops ->
      Alcotest.(check bool)
        "witness is a legal sequential history" true
        (History.check_sequential preloaded ops);
      Alcotest.(check (list int))
        "P1's deq linearizes first" [ 1; 0 ]
        (List.map (fun (o : History.operation) -> o.History.pid) ops)
  | None -> Alcotest.fail "expected witness"

(* qcheck: histories generated from random sequential executions are
   always linearizable, no matter how invocations/responses interleave. *)
let prop_sequential_executions_linearizable =
  QCheck2.Test.make
    ~name:"random sequential executions are linearizable" ~count:200
    QCheck2.Gen.(list_size (int_range 0 10) (int_range 0 100))
    (fun choices ->
      let spec =
        Queues.fifo ~name:"q" ~items:[ Value.int 1; Value.int 2 ] ()
      in
      let menu = Array.of_list spec.Object_spec.menu in
      (* run ops sequentially, attributing them alternately to 2 pids *)
      let _, events =
        List.fold_left
          (fun (state, events) c ->
            let op = menu.(c mod Array.length menu) in
            let pid = c mod 2 in
            let state', res = Object_spec.apply spec state op in
            ( state',
              rsp pid "q" res :: inv pid "q" op :: events ))
          (spec.Object_spec.init, [])
          choices
      in
      Linearizability.is_linearizable [ ("q", spec) ] (List.rev events))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sequential_executions_linearizable ]

let suite =
  [
    ( "history",
      [
        Alcotest.test_case "well-formedness" `Quick test_well_formed;
        Alcotest.test_case "operation extraction" `Quick
          test_operations_extraction;
        Alcotest.test_case "precedes" `Quick test_precedes;
      ] );
    ( "linearizability",
      [
        Alcotest.test_case "sequential good" `Quick test_sequential_good;
        Alcotest.test_case "sequential bad" `Quick test_sequential_bad;
        Alcotest.test_case "overlap reorders" `Quick test_overlap_reorders;
        Alcotest.test_case "real-time respected" `Quick test_realtime_respected;
        Alcotest.test_case "concurrent deqs" `Quick test_queue_concurrent_deqs;
        Alcotest.test_case "pending dropped" `Quick test_pending_can_be_dropped;
        Alcotest.test_case "pending observed" `Quick
          test_pending_can_take_effect;
        Alcotest.test_case "locality" `Quick test_locality;
        Alcotest.test_case "witness legality" `Quick test_witness_is_legal;
      ] );
    ("linearizability.properties", qsuite);
  ]

(* --- brute force cross-validation of the linearizability checker ---

   For tiny histories, linearizability can be decided by trying every
   permutation of the (completed) operations.  The search-based checker
   must agree with the brute force on randomly generated histories —
   both linearizable and non-linearizable ones. *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y != x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let brute_force_linearizable spec (h : Wfs_history.History.t) =
  let ops = Wfs_history.History.operations h in
  if List.exists Wfs_history.History.is_pending ops then
    invalid_arg "brute force handles complete histories only";
  let respects_realtime perm =
    (* in the permutation, if a really-precedes b then a comes first *)
    let arr = Array.of_list perm in
    let n = Array.length arr in
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = 0 to i - 1 do
        (* arr.(j) is before arr.(i); violated if arr.(i) precedes arr.(j) *)
        if Wfs_history.History.precedes arr.(i) arr.(j) then ok := false
      done
    done;
    !ok
  in
  List.exists
    (fun perm ->
      respects_realtime perm
      && Wfs_history.History.check_sequential spec perm)
    (permutations ops)

(* random complete histories over a 2-item queue: pick random intervals
   and random (possibly wrong) results *)
let gen_history =
  let open QCheck2.Gen in
  let spec () = Queues.fifo ~name:"q" ~items:[ Value.int 1; Value.int 2 ] () in
  let event_choices =
    list_size (int_range 0 5)
      (triple (int_range 0 1) (int_range 0 2) (int_range 0 3))
  in
  map
    (fun choices ->
      let spec = spec () in
      let menu = Array.of_list spec.Object_spec.menu in
      (* build per-process op lists, then interleave with random results *)
      let events = ref [] in
      let pending = [| None; None |] in
      let results =
        [| Value.int 1; Value.int 2; Queues.empty_result; Value.unit |]
      in
      List.iter
        (fun (pid, opi, resi) ->
          match pending.(pid) with
          | None ->
              let op = menu.(opi mod Array.length menu) in
              pending.(pid) <- Some op;
              events := inv pid "q" op :: !events
          | Some _ ->
              pending.(pid) <- None;
              events := rsp pid "q" results.(resi) :: !events)
        choices;
      (* close any dangling invocations so the history is complete *)
      Array.iteri
        (fun pid p ->
          match p with
          | Some _ -> events := rsp pid "q" (Value.unit) :: !events
          | None -> ())
        pending;
      List.rev !events)
    event_choices

let prop_checker_matches_brute_force =
  QCheck2.Test.make ~name:"checker agrees with brute force" ~count:300
    gen_history (fun h ->
      let spec = Queues.fifo ~name:"q" ~items:[ Value.int 1; Value.int 2 ] () in
      (not (Wfs_history.History.well_formed h))
      || Linearizability.is_linearizable [ ("q", spec) ] h
         = brute_force_linearizable spec h)

let brute_suite =
  ("linearizability.brute-force",
   List.map QCheck_alcotest.to_alcotest [ prop_checker_matches_brute_force ])

let suite = suite @ [ brute_suite ]

(* --- the construction's own witness (Linearizability.check_witness) ---

   Operations are built directly: [invoke_at]/[respond_at] are clock
   readings, and each operation carries the log position its
   construction reported ([None]: a pending one whose position went
   unreported). *)

let reg = List.assoc "r" reg_env

let done_op ?(pid = 0) o res ~span:(i, r) =
  { History.pid; obj = "r"; op = o; res = Some res; invoke_at = i; respond_at = r }

let pending_op ?(pid = 0) o ~invoked =
  { History.pid; obj = "r"; op = o; res = None; invoke_at = invoked;
    respond_at = max_int }

let witness ops = Linearizability.check_witness reg ~length:(List.length ops) (Array.of_list ops)
let write v = Registers.write (Value.int v)

(* A read invoked after a write responded, reporting a position before
   it: the replay in position order reproduces every result (0, then
   unit), so a positions-and-replay check alone accepts it — only the
   real-time scan rejects it. *)
let test_witness_stale_read () =
  let w = done_op ~pid:1 (write 1) Value.unit ~span:(0, 1) in
  let stale = done_op Registers.read (Value.int 0) ~span:(5, 6) in
  Alcotest.(check bool) "stale read at an early position" false
    (witness [ (w, Some 1); (stale, Some 0) ]);
  Alcotest.(check bool) "Wing–Gong agrees" false
    (Linearizability.is_linearizable reg_env
       [ inv 1 "r" (write 1); rsp 1 "r" Value.unit;
         inv 0 "r" Registers.read; rsp 0 "r" (Value.int 0) ]);
  let fresh = done_op Registers.read (Value.int 1) ~span:(5, 6) in
  Alcotest.(check bool) "the honest witness passes" true
    (witness [ (w, Some 0); (fresh, Some 1) ]);
  (* overlapping operations may take either order *)
  let overlapping = done_op Registers.read (Value.int 0) ~span:(0, 6) in
  Alcotest.(check bool) "an overlapping read may precede" true
    (witness [ (w, Some 1); (overlapping, Some 0) ])

let test_witness_positions () =
  let w = done_op ~pid:1 (write 1) Value.unit ~span:(0, 1) in
  let r = done_op Registers.read (Value.int 1) ~span:(2, 3) in
  Alcotest.(check bool) "duplicate position" false
    (witness [ (w, Some 0); (r, Some 0) ]);
  Alcotest.(check bool) "position = length" false
    (witness [ (w, Some 0); (r, Some 2) ]);
  Alcotest.(check bool) "negative position" false
    (witness [ (w, Some (-1)); (r, Some 1) ]);
  Alcotest.(check bool) "completed op without a position" false
    (witness [ (w, Some 0); (r, None) ])

let test_witness_gaps () =
  let w = done_op ~pid:1 (write 1) Value.unit ~span:(0, 1) in
  let r v = done_op Registers.read (Value.int v) ~span:(4, 5) in
  let gap ops =
    Linearizability.check_witness reg ~length:3 (Array.of_list ops)
  in
  Alcotest.(check bool) "a gap no pending op fills" false
    (gap [ (w, Some 0); (r 1, Some 2) ]);
  let pending2 = pending_op ~pid:2 (write 2) ~invoked:2 in
  Alcotest.(check bool) "a pending write fills the gap" true
    (gap [ (w, Some 0); (pending2, None); (r 2, Some 2) ]);
  (* the gap says the pending write took effect before the read: a read
     still seeing 1 breaks under the only placement *)
  Alcotest.(check bool) "the filler breaks a later result" false
    (gap [ (w, Some 0); (pending2, None); (r 1, Some 2) ]);
  Alcotest.(check bool) "Wing–Gong, free to drop it, accepts" true
    (Linearizability.is_linearizable reg_env
       [ inv 1 "r" (write 1); rsp 1 "r" Value.unit; inv 2 "r" (write 2);
         inv 0 "r" Registers.read; rsp 0 "r" (Value.int 1) ]);
  (* a pending op invoked after the later read responded cannot fill *)
  let late = pending_op ~pid:2 (write 2) ~invoked:9 in
  Alcotest.(check bool) "a filler invoked too late" false
    (gap [ (w, Some 0); (late, None); (r 2, Some 2) ]);
  (* extra pending operations are dropped *)
  Alcotest.(check bool) "left-over pending ops are dropped" true
    (gap
       [ (w, Some 0); (pending2, None); (pending_op ~pid:3 (write 1) ~invoked:3, None);
         (r 2, Some 2) ])

(* Random concurrent executions of a queue over three processes: each
   operation is invoked, takes effect at the next log position, then
   responds, with the three phases of different processes interleaved
   at random; operations still in flight at the end are pending (those
   past their effect leave a gap).  The reported positions are either
   the honest effect order or shuffled, and one response may report a
   plausible wrong value. *)
let gen_positioned =
  let open QCheck2.Gen in
  triple
    (list_size (int_range 0 36) (pair (int_range 0 2) (int_range 0 3)))
    bool
    (pair (int_range 0 40) (int_range 0 3))

let run_positioned (steps, shuffle, (seed, corrupt)) =
  let spec = Queues.fifo ~name:"q" ~items:[ Value.int 1; Value.int 2 ] () in
  let menu = Array.of_list spec.Object_spec.menu in
  let state = ref spec.Object_spec.init and log = ref 0 and invoked = ref 0 in
  (* per process: the op in flight, and its result/position once applied *)
  let phase = Array.make 3 None in
  let events = ref [] and positions = ref [] in
  List.iter
    (fun (pid, choice) ->
      match phase.(pid) with
      | None when !invoked < 12 ->
          let op = menu.(choice mod Array.length menu) in
          incr invoked;
          phase.(pid) <- Some (op, None);
          events := inv pid "q" op :: !events
      | None -> ()
      | Some (op, None) ->
          let state', res = Object_spec.apply spec !state op in
          state := state';
          phase.(pid) <- Some (op, Some (res, !log));
          positions := (pid, !log) :: !positions;
          incr log
      | Some (_, Some (res, _)) ->
          phase.(pid) <- None;
          events := rsp pid "q" res :: !events)
    steps;
  (* [corrupt = k > 0]: the k-th response reports a plausible wrong
     value instead *)
  let corrupted = ref false and responses = ref 0 in
  let h =
    List.map
      (function
        | Event.Respond { pid; obj; res } as e ->
            incr responses;
            if !responses <> corrupt then e
            else
              let alt =
                [| Value.int 1; Value.int 2; Queues.empty_result |].(seed mod 3)
              in
              corrupted := not (Value.equal alt res);
              Event.Respond { pid; obj; res = alt }
        | e -> e)
      (List.rev !events)
  in
  (* History.operations lists operations in invocation order, which per
     process is effect order *)
  let per_pid = Array.make 3 [] in
  List.iter (fun (pid, p) -> per_pid.(pid) <- p :: per_pid.(pid)) !positions;
  let honest =
    Array.of_list
      (List.map
         (fun (o : History.operation) ->
           match per_pid.(o.History.pid) with
           | p :: rest ->
               per_pid.(o.History.pid) <- rest;
               (o, if History.is_pending o then None else Some p)
           | [] -> (o, None))
         (History.operations h))
  in
  let reported = Array.copy honest in
  if shuffle then begin
    let rng = Random.State.make [| seed |] in
    let placed = Array.of_list (List.filter_map snd (Array.to_list honest)) in
    for i = Array.length placed - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = placed.(i) in
      placed.(i) <- placed.(j);
      placed.(j) <- t
    done;
    let k = ref 0 in
    Array.iteri
      (fun i (o, pos) ->
        if pos <> None then begin
          reported.(i) <- (o, Some placed.(!k));
          incr k
        end)
      honest
  end;
  (spec, h, honest, reported, !log, !corrupted)

let prop_witness_sound =
  QCheck2.Test.make
    ~name:"witness accepts => Wing–Gong accepts; honest witness accepted"
    ~count:500 gen_positioned (fun input ->
      let spec, h, honest, reported, length, corrupted =
        run_positioned input
      in
      (corrupted || Linearizability.check_witness spec ~length honest)
      && ((not (Linearizability.check_witness spec ~length reported))
         || (Linearizability.check_object spec h).linearizable))

let witness_suite =
  ( "linearizability.witness",
    [
      Alcotest.test_case "stale read rejected (real time)" `Quick
        test_witness_stale_read;
      Alcotest.test_case "positions distinct and in range" `Quick
        test_witness_positions;
      Alcotest.test_case "gaps filled by pending ops" `Quick test_witness_gaps;
      QCheck_alcotest.to_alcotest prop_witness_sound;
    ] )

let suite = suite @ [ witness_suite ]
