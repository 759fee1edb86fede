(* Sequential-semantics tests for the object zoo. *)

open Wfs_spec

let value = Alcotest.testable Value.pp Value.equal

let apply_all spec ops =
  List.fold_left
    (fun (state, results) op ->
      let state', res = Object_spec.apply spec state op in
      (state', res :: results))
    (spec.Object_spec.init, [])
    ops
  |> fun (state, results) -> (state, List.rev results)

(* --- registers --- *)

let test_register_read_write () =
  let r = Zoo.register () in
  let _, results =
    apply_all r [ Registers.read; Registers.write (Value.pid 1); Registers.read ]
  in
  Alcotest.(check (list value))
    "read;write;read"
    [ Value.bottom; Value.unit; Value.pid 1 ]
    results

let test_write_returns_unit () =
  (* a value-returning write would secretly be a swap and would break
     Theorem 2 *)
  let r = Zoo.register () in
  let _, res =
    Object_spec.apply r r.Object_spec.init (Registers.write (Value.pid 0))
  in
  Alcotest.check value "write result" Value.unit res

let test_test_and_set () =
  let r = Zoo.test_and_set () in
  let _, results = apply_all r [ Registers.tas; Registers.tas; Registers.read ] in
  Alcotest.(check (list value))
    "tas;tas;read"
    [ Value.int 0; Value.int 1; Value.int 1 ]
    results

let test_fetch_and_add () =
  let r = Registers.fetch_and_add ~init:10 () in
  let _, results =
    apply_all r [ Registers.faa 1; Registers.faa 1; Registers.read ]
  in
  Alcotest.(check (list value))
    "faa returns old"
    [ Value.int 10; Value.int 11; Value.int 12 ]
    results

let test_swap_register () =
  let r = Registers.swap_register ~init:(Value.int 0) [ Value.int 1 ] in
  let _, results =
    apply_all r [ Registers.swap (Value.int 1); Registers.swap (Value.int 1) ]
  in
  Alcotest.(check (list value))
    "swap returns old"
    [ Value.int 0; Value.int 1 ]
    results

let test_cas_semantics () =
  let r =
    Registers.compare_and_swap ~init:Value.bottom
      [ Value.bottom; Value.pid 0; Value.pid 1 ]
  in
  let _, results =
    apply_all r
      [
        Registers.cas ~expected:Value.bottom ~replacement:(Value.pid 0);
        Registers.cas ~expected:Value.bottom ~replacement:(Value.pid 1);
        Registers.read;
      ]
  in
  Alcotest.(check (list value))
    "first cas wins"
    [ Value.bottom; Value.pid 0; Value.pid 0 ]
    results

let test_unknown_op () =
  let r = Zoo.register () in
  match Object_spec.apply r r.Object_spec.init (Op.nullary "frobnicate") with
  | _ -> Alcotest.fail "expected Unknown_operation"
  | exception Object_spec.Unknown_operation _ -> ()

(* --- queues, stacks --- *)

let test_fifo_order () =
  let q = Queues.fifo ~items:[ Value.int 1; Value.int 2 ] () in
  let _, results =
    apply_all q
      [
        Queues.enq (Value.int 1);
        Queues.enq (Value.int 2);
        Queues.deq;
        Queues.deq;
        Queues.deq;
      ]
  in
  Alcotest.(check (list value))
    "fifo order + empty"
    [ Value.unit; Value.unit; Value.int 1; Value.int 2; Queues.empty_result ]
    results

let test_queue_initial () =
  let q =
    Queues.fifo
      ~initial:[ Value.str "first"; Value.str "second" ]
      ~items:[] ()
  in
  let _, results = apply_all q [ Queues.deq; Queues.deq ] in
  Alcotest.(check (list value))
    "pre-loaded queue"
    [ Value.str "first"; Value.str "second" ]
    results

let test_peek_nondestructive () =
  let q = Queues.augmented ~initial:[ Value.int 7 ] ~items:[ Value.int 7 ] () in
  let _, results = apply_all q [ Queues.peek; Queues.peek; Queues.deq ] in
  Alcotest.(check (list value))
    "peek;peek;deq"
    [ Value.int 7; Value.int 7; Value.int 7 ]
    results

let test_stack_lifo () =
  let s = Queues.stack ~items:[ Value.int 1; Value.int 2 ] () in
  let _, results =
    apply_all s
      [ Queues.push (Value.int 1); Queues.push (Value.int 2); Queues.pop;
        Queues.pop; Queues.pop ]
  in
  Alcotest.(check (list value))
    "lifo order + empty"
    [ Value.unit; Value.unit; Value.int 2; Value.int 1; Queues.empty_result ]
    results

let test_priority_queue () =
  let pq = Queues.priority_queue ~keys:[ 1; 2; 3 ] () in
  let _, results =
    apply_all pq
      [
        Queues.insert (Value.int 3);
        Queues.insert (Value.int 1);
        Queues.insert (Value.int 2);
        Queues.extract_min;
        Queues.min_op;
        Queues.extract_min;
      ]
  in
  Alcotest.(check (list value))
    "min ordering"
    [ Value.unit; Value.unit; Value.unit; Value.int 1; Value.int 2; Value.int 2 ]
    results

let test_pqueue_canonical_state () =
  (* different insertion orders produce identical states *)
  let pq = Queues.priority_queue ~keys:[ 1; 2 ] () in
  let s1, _ =
    apply_all pq [ Queues.insert (Value.int 1); Queues.insert (Value.int 2) ]
  in
  let s2, _ =
    apply_all pq [ Queues.insert (Value.int 2); Queues.insert (Value.int 1) ]
  in
  Alcotest.check value "canonical" s1 s2

(* --- collections --- *)

let test_set_semantics () =
  let s = Collections.set ~elements:[ Value.int 1; Value.int 2 ] () in
  let _, results =
    apply_all s
      [
        Collections.insert (Value.int 2);
        Collections.insert (Value.int 1);
        Collections.insert (Value.int 1);
        Collections.member (Value.int 1);
        Collections.remove;
        Collections.member (Value.int 1);
        Collections.size;
      ]
  in
  Alcotest.(check (list value))
    "set ops"
    [
      Value.bool true;  (* 2 was new *)
      Value.bool true;  (* 1 was new *)
      Value.bool false; (* duplicate *)
      Value.bool true;
      Value.int 1;      (* deterministic remove takes least *)
      Value.bool false;
      Value.int 1;
    ]
    results

let test_counter () =
  let c = Collections.counter () in
  let _, results =
    apply_all c [ Collections.incr; Collections.incr; Collections.decr ]
  in
  Alcotest.(check (list value))
    "counter returns new value"
    [ Value.int 1; Value.int 2; Value.int 1 ]
    results

let test_kv_map () =
  let a = Value.str "a" and b = Value.str "b" in
  let m = Collections.kv_map ~initial:[ (b, Value.int 2); (a, Value.int 1) ] () in
  let state, results =
    apply_all m
      [
        Collections.get a;
        Collections.put a (Value.int 0);
        Collections.del b;
        Collections.get b;
        Collections.del b;
        Collections.put b (Value.int 1);
      ]
  in
  Alcotest.(check (list value))
    "get/put/del results"
    [
      Value.some (Value.int 1);
      Value.some (Value.int 1);
      Value.some (Value.int 2);
      Value.none;
      Value.none;
      Value.none;
    ]
    results;
  Alcotest.check value "state is the sorted encoding"
    (Value.list [ Value.pair a (Value.int 0); Value.pair b (Value.int 1) ])
    state

let test_kv_map_duplicate_initial () =
  let a = Value.str "a" in
  match Collections.kv_map ~initial:[ (a, Value.int 0); (a, Value.int 1) ] () with
  | _ -> Alcotest.fail "duplicate key accepted"
  | exception Invalid_argument _ -> ()

(* --- memory --- *)

let init2 = [ Value.pid 0; Value.pid 1 ]

let test_memory_move () =
  let m = Memory.with_move ~size:2 ~init:init2 Zoo.small_values in
  let _, results =
    apply_all m [ Memory.move ~src:1 ~dst:0; Memory.read 0; Memory.read 1 ]
  in
  Alcotest.(check (list value))
    "move copies src into dst"
    [ Value.unit; Value.pid 1; Value.pid 1 ]
    results

let test_memory_swap () =
  let m = Memory.with_swap ~size:2 ~init:init2 Zoo.small_values in
  let _, results =
    apply_all m [ Memory.swap 0 1; Memory.read 0; Memory.read 1 ]
  in
  Alcotest.(check (list value))
    "swap exchanges"
    [ Value.unit; Value.pid 1; Value.pid 0 ]
    results

let test_memory_assign () =
  let m =
    Memory.n_assignment ~size:3
      ~init:[ Value.bottom; Value.bottom; Value.bottom ]
      Zoo.small_values
  in
  let _, results =
    apply_all m
      [
        Memory.assign [ (0, Value.pid 1); (2, Value.pid 1) ];
        Memory.read 0;
        Memory.read 1;
        Memory.read 2;
      ]
  in
  Alcotest.(check (list value))
    "multi-assignment atomic"
    [ Value.unit; Value.pid 1; Value.bottom; Value.pid 1 ]
    results

let test_memory_bounds () =
  let m = Memory.with_move ~size:2 ~init:init2 Zoo.small_values in
  match Object_spec.apply m m.Object_spec.init (Memory.read 5) with
  | _ -> Alcotest.fail "expected Unknown_operation for out-of-range register"
  | exception Object_spec.Unknown_operation _ -> ()

(* --- channels --- *)

let test_fifo_channel () =
  let ch = Channels.fifo_point_to_point ~processes:2 ~messages:(Zoo.pids 2) () in
  let _, results =
    apply_all ch
      [
        Channels.send ~target:1 (Value.pid 0);
        Channels.send ~target:1 (Value.pid 1);
        Channels.recv ~me:1;
        Channels.recv ~me:1;
        Channels.recv ~me:1;
        Channels.recv ~me:0;
      ]
  in
  Alcotest.(check (list value))
    "fifo per-receiver delivery"
    [
      Value.unit; Value.unit;
      Value.some (Value.pid 0);
      Value.some (Value.pid 1);
      Channels.no_message;
      Channels.no_message;
    ]
    results

let test_ordered_broadcast () =
  let ch = Channels.ordered_broadcast ~processes:2 ~messages:(Zoo.pids 2) () in
  let _, results =
    apply_all ch
      [
        Channels.broadcast (Value.pid 1);
        Channels.broadcast (Value.pid 0);
        Channels.next ~me:0;
        Channels.next ~me:1;
        Channels.next ~me:0;
      ]
  in
  Alcotest.(check (list value))
    "same global order for all readers"
    [
      Value.unit; Value.unit;
      Value.some (Value.pid 1);
      Value.some (Value.pid 1);
      Value.some (Value.pid 0);
    ]
    results

(* --- fetch-and-cons / consensus object --- *)

let test_fetch_and_cons () =
  let l = Fetch_and_cons.list_object ~items:(Zoo.pids 2) () in
  let _, results =
    apply_all l
      [
        Fetch_and_cons.fetch_and_cons (Value.pid 0);
        Fetch_and_cons.fetch_and_cons (Value.pid 1);
        Fetch_and_cons.car;
        Fetch_and_cons.cdr;
        Fetch_and_cons.null;
      ]
  in
  Alcotest.(check (list value))
    "fetch-and-cons returns the tail"
    [
      Value.list [];
      Value.list [ Value.pid 0 ];
      Value.pid 1;
      Value.list [ Value.pid 0 ];
      Value.bool false;
    ]
    results

let test_consensus_object_sticks () =
  let c = Consensus_object.single ~values:(Zoo.pids 2) () in
  let _, results =
    apply_all c
      [ Consensus_object.decide (Value.pid 1); Consensus_object.decide (Value.pid 0) ]
  in
  Alcotest.(check (list value))
    "first decide sticks"
    [ Value.pid 1; Value.pid 1 ]
    results

let test_consensus_array_rounds_independent () =
  let c = Consensus_object.array ~rounds:2 ~values:(Zoo.pids 2) () in
  let _, results =
    apply_all c
      [
        Consensus_object.decide_round 0 (Value.pid 1);
        Consensus_object.decide_round 1 (Value.pid 0);
        Consensus_object.decide_round 0 (Value.pid 0);
      ]
  in
  Alcotest.(check (list value))
    "rounds independent"
    [ Value.pid 1; Value.pid 0; Value.pid 1 ]
    results

(* --- generic spec machinery --- *)

let test_eval_result () =
  let q = Queues.fifo ~items:[ Value.int 1 ] () in
  let state = Object_spec.eval q [ Queues.enq (Value.int 1) ] in
  Alcotest.check value "eval" (Value.list [ Value.int 1 ]) state;
  Alcotest.check value "result" (Value.int 1)
    (Object_spec.result q state Queues.deq)

let test_reachable_states () =
  let r = Zoo.test_and_set () in
  let states = Object_spec.reachable_states r in
  Alcotest.(check int) "tas register has two reachable states" 2
    (List.length states)

let test_zoo_total_in_init () =
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (Fmt.str "%s total in init" spec.Object_spec.name)
        true
        (Object_spec.total_in spec spec.Object_spec.init))
    (Zoo.all ())

let test_zoo_find () =
  let q = Zoo.find "fifo-queue" in
  Alcotest.(check string) "find by name" "fifo-queue" q.Object_spec.name;
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Zoo.find: unknown object \"nope\"") (fun () ->
      ignore (Zoo.find "nope"))

(* --- qcheck properties --- *)

let ops_gen spec =
  let menu = Array.of_list spec.Object_spec.menu in
  QCheck2.Gen.(
    list_size (int_range 0 12)
      (map (fun i -> menu.(i mod Array.length menu)) (int_range 0 1000)))

let prop_deterministic spec =
  QCheck2.Test.make
    ~name:(Fmt.str "%s: eval is deterministic" spec.Object_spec.name)
    ~count:100 (ops_gen spec) (fun ops ->
      Value.equal (Object_spec.eval spec ops) (Object_spec.eval spec ops))

let prop_total spec =
  QCheck2.Test.make
    ~name:(Fmt.str "%s: menu ops total on reachable states" spec.Object_spec.name)
    ~count:100 (ops_gen spec) (fun ops ->
      let state = Object_spec.eval spec ops in
      Object_spec.total_in spec state)

let prop_queue_fifo =
  QCheck2.Test.make ~name:"queue: deq order = enq order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 5))
    (fun xs ->
      let q = Queues.fifo ~items:(List.map Value.int xs) () in
      let state =
        Object_spec.eval q (List.map (fun x -> Queues.enq (Value.int x)) xs)
      in
      let rec drain state acc =
        let state', res = Object_spec.apply q state Queues.deq in
        if Value.equal res Queues.empty_result then List.rev acc
        else drain state' (res :: acc)
      in
      drain state [] = List.map Value.int xs)

let prop_stack_reverses =
  QCheck2.Test.make ~name:"stack: pop order reverses push order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 5))
    (fun xs ->
      let s = Queues.stack ~items:(List.map Value.int xs) () in
      let state =
        Object_spec.eval s (List.map (fun x -> Queues.push (Value.int x)) xs)
      in
      let rec drain state acc =
        let state', res = Object_spec.apply s state Queues.pop in
        if Value.equal res Queues.empty_result then List.rev acc
        else drain state' (res :: acc)
      in
      drain state [] = List.rev_map Value.int xs)

let prop_pqueue_sorted =
  QCheck2.Test.make ~name:"priority queue drains sorted" ~count:200
    QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 9))
    (fun xs ->
      let pq = Queues.priority_queue ~keys:xs () in
      let state =
        Object_spec.eval pq (List.map (fun x -> Queues.insert (Value.int x)) xs)
      in
      let rec drain state acc =
        let state', res = Object_spec.apply pq state Queues.extract_min in
        if Value.equal res Queues.empty_result then List.rev acc
        else drain state' (res :: acc)
      in
      drain state [] = List.map Value.int (List.sort compare xs))

let prop_faa_sums =
  QCheck2.Test.make ~name:"fetch-and-add accumulates" ~count:200
    QCheck2.Gen.(list_size (int_range 0 10) (int_range 1 5))
    (fun ks ->
      let r = Registers.fetch_and_add ~increments:ks ~init:0 () in
      let state = Object_spec.eval r (List.map Registers.faa ks) in
      let total = List.fold_left ( + ) 0 ks in
      Value.equal state (Value.int total))

(* The kv-map's original [apply], kept as the reference oracle: decode
   the whole map, look the key up with [List.assoc_opt], and re-sort and
   re-encode every binding on a write.  [Collections.kv_map] works on
   the encoding in place and must agree with it on every state and
   result. *)
module Kv_oracle = struct
  let canonical kvs = List.sort (fun (a, _) (b, _) -> Value.compare a b) kvs
  let encode kvs = Value.list (List.map (fun (k, v) -> Value.pair k v) kvs)
  let init initial = encode (canonical initial)

  let apply state op =
    let kvs = List.map Value.as_pair (Value.as_list state) in
    let lookup k = List.assoc_opt k kvs |> Value.of_option in
    match Op.name op with
    | "put" ->
        let k, v = Value.as_pair (Op.arg op) in
        (encode (canonical ((k, v) :: List.remove_assoc k kvs)), lookup k)
    | "get" -> (state, lookup (Op.arg op))
    | "del" ->
        let k = Op.arg op in
        (encode (List.remove_assoc k kvs), lookup k)
    | _ -> invalid_arg "Kv_oracle.apply"
end

(* Keys of two constructors, so the order crosses [Int]/[Str]; the
   upper half of the pool is never in the initial map, so absent keys
   are always exercised. *)
let kv_key i = if i mod 3 = 0 then Value.int i else Value.str (Fmt.str "k%d" i)

let prop_kv_map_oracle =
  QCheck2.Test.make ~name:"kv-map: apply agrees with the reference oracle"
    ~count:500
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 8) (pair (int_range 0 7) (int_range 0 4)))
        (list_size (int_range 0 40)
           (triple (int_range 0 2) (int_range 0 11) (int_range 0 4))))
    (fun (initial, ops) ->
      (* distinct keys, in the generated (unsorted) order *)
      let initial =
        List.fold_left
          (fun acc (k, v) ->
            if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
          [] initial
        |> List.map (fun (k, v) -> (kv_key k, Value.int v))
      in
      let spec = Collections.kv_map ~initial () in
      let op_of (kind, k, v) =
        match kind with
        | 0 -> Collections.get (kv_key k)
        | 1 -> Collections.put (kv_key k) (Value.int v)
        | _ -> Collections.del (kv_key k)
      in
      let rec run state expected = function
        | [] -> true
        | op :: ops ->
            let state', res = Object_spec.apply spec state op in
            let expected', res' = Kv_oracle.apply expected op in
            Value.equal state' expected'
            && Value.equal res res'
            && run state' expected' ops
      in
      let init = spec.Object_spec.init in
      Value.equal init (Kv_oracle.init initial)
      && run init init (List.map op_of ops))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    (List.concat_map
       (fun spec -> [ prop_deterministic spec; prop_total spec ])
       (Zoo.all ())
    @ [
        prop_queue_fifo;
        prop_stack_reverses;
        prop_pqueue_sorted;
        prop_faa_sums;
        prop_kv_map_oracle;
      ])

let suite =
  [
    ( "spec.registers",
      [
        Alcotest.test_case "read/write" `Quick test_register_read_write;
        Alcotest.test_case "write returns unit" `Quick test_write_returns_unit;
        Alcotest.test_case "test-and-set" `Quick test_test_and_set;
        Alcotest.test_case "fetch-and-add" `Quick test_fetch_and_add;
        Alcotest.test_case "swap" `Quick test_swap_register;
        Alcotest.test_case "compare-and-swap" `Quick test_cas_semantics;
        Alcotest.test_case "unknown operation" `Quick test_unknown_op;
      ] );
    ( "spec.containers",
      [
        Alcotest.test_case "fifo order" `Quick test_fifo_order;
        Alcotest.test_case "pre-loaded queue" `Quick test_queue_initial;
        Alcotest.test_case "peek non-destructive" `Quick test_peek_nondestructive;
        Alcotest.test_case "stack lifo" `Quick test_stack_lifo;
        Alcotest.test_case "priority queue" `Quick test_priority_queue;
        Alcotest.test_case "pqueue canonical state" `Quick
          test_pqueue_canonical_state;
        Alcotest.test_case "set" `Quick test_set_semantics;
        Alcotest.test_case "counter" `Quick test_counter;
        Alcotest.test_case "kv-map" `Quick test_kv_map;
        Alcotest.test_case "kv-map rejects duplicate keys" `Quick
          test_kv_map_duplicate_initial;
      ] );
    ( "spec.memory",
      [
        Alcotest.test_case "move" `Quick test_memory_move;
        Alcotest.test_case "swap" `Quick test_memory_swap;
        Alcotest.test_case "assign" `Quick test_memory_assign;
        Alcotest.test_case "bounds" `Quick test_memory_bounds;
      ] );
    ( "spec.channels",
      [
        Alcotest.test_case "fifo channel" `Quick test_fifo_channel;
        Alcotest.test_case "ordered broadcast" `Quick test_ordered_broadcast;
      ] );
    ( "spec.misc",
      [
        Alcotest.test_case "fetch-and-cons" `Quick test_fetch_and_cons;
        Alcotest.test_case "consensus object sticks" `Quick
          test_consensus_object_sticks;
        Alcotest.test_case "consensus array" `Quick
          test_consensus_array_rounds_independent;
        Alcotest.test_case "eval/result" `Quick test_eval_result;
        Alcotest.test_case "reachable states" `Quick test_reachable_states;
        Alcotest.test_case "zoo total in init" `Quick test_zoo_total_in_init;
        Alcotest.test_case "zoo find" `Quick test_zoo_find;
      ] );
    ("spec.properties", qsuite);
  ]
