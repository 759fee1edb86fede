(* The universal object service: closed-loop load harness,
   differential and crash-mode linearizability checks. *)

open Wfs_runtime
open Wfs_spec
module Load = Service.Load

let check_load ?spec ?halts ~clients ~ops_per_client ~window () =
  let r =
    Service.Load.run ?spec ?halts ~seed:7 ~window ~clients ~ops_per_client ()
  in
  Alcotest.(check bool)
    (Fmt.str "load run passed: %a" Service.Load.pp_report r)
    true (Service.Load.passed r);
  r

let test_load_queue () =
  let r =
    check_load ~spec:(Zoo.queue ()) ~clients:4 ~ops_per_client:1000
      ~window:16 ()
  in
  Alcotest.(check int) "all ops completed" 4000 r.Service.Load.total_ops;
  Alcotest.(check int) "log length = ops" 4000 r.Service.Load.log_length;
  Alcotest.(check (option bool))
    "differential verdict" (Some true) r.Service.Load.differential_ok

let test_load_counter () =
  ignore
    (check_load ~spec:(Collections.counter ()) ~clients:3 ~ops_per_client:800
       ~window:8 ())

let test_load_kv_map () =
  let r =
    check_load ~spec:(Collections.kv_map ()) ~clients:3 ~ops_per_client:800
      ~window:8 ()
  in
  (* a microsecond clock read every sub-µs operation as 0 ns *)
  Alcotest.(check bool) "p50 latency resolved" true (r.Service.Load.lat_p50_ns > 0)

let test_load_with_crashes () =
  (* halt 2 of 4 clients mid-operation (after the effect): survivors
     finish, and the recorded history — crashed ops pending — must
     linearize *)
  let r =
    check_load ~clients:4 ~ops_per_client:8 ~window:4 ~halts:2 ()
  in
  Alcotest.(check (list int)) "both halted" [ 0; 1 ] r.Service.Load.halted;
  Alcotest.(check (option bool))
    "linearizable" (Some true) r.Service.Load.linearizable;
  Alcotest.(check int) "one pending op per halt" 2 r.Service.Load.pending_ops;
  (* crashed clients completed fewer ops than survivors *)
  Alcotest.(check bool) "some ops completed" true (r.Service.Load.total_ops > 0)

(* A FIFO queue whose enqueues draw from a wide item menu, so enqueued
   values stay nearly distinct, and whose menu interleaves as many
   dequeues: the crash grid's histories constrain the order. *)
let wide_queue () =
  let items = List.init 100 Value.int in
  let q = Queues.fifo ~items () in
  {
    q with
    Object_spec.menu =
      List.concat_map (fun v -> [ Queues.enq v; Queues.deq ]) items;
  }

let test_crash_grid () =
  List.iter
    (fun (clients, halts) ->
      let r =
        Load.run ~spec:(wide_queue ()) ~halts ~clients ~ops_per_client:7 ()
      in
      Alcotest.(check bool)
        (Fmt.str "n=%d halts=%d passes: %a" clients halts Load.pp_report r)
        true (Load.passed r);
      Alcotest.(check int)
        (Fmt.str "n=%d halts=%d pending ops" clients halts)
        halts r.Load.pending_ops)
    [ (2, 0); (2, 1); (3, 2); (4, 3) ]

(* Client k halts inside its (k+1)-th operation: fewer operations than
   halts would leave requested halts unlanded, and the run unchecked. *)
let test_halts_need_ops () =
  Alcotest.check_raises "3 clients, 1 op, 2 halts"
    (Invalid_argument
       "Load.run: ops_per_client must be >= halts (client k halts inside \
        its (k+1)-th operation)")
    (fun () -> ignore (Load.run ~halts:2 ~clients:3 ~ops_per_client:1 ()));
  let r = Load.run ~halts:2 ~clients:3 ~ops_per_client:2 () in
  Alcotest.(check (list int)) "ops = halts: every halt lands" [ 0; 1 ]
    r.Load.halted;
  Alcotest.(check bool) "and passes" true (Load.passed r)

(* [passed] itself rejects a crash run short of a halt or a survivor's
   workload, whatever the linearizability verdict. *)
let test_passed_needs_halts_and_survivors () =
  let r =
    Load.run ~spec:(Zoo.queue ()) ~halts:2 ~clients:4 ~ops_per_client:5 ()
  in
  Alcotest.(check bool) "the run passes" true (Load.passed r);
  Alcotest.(check bool) "a missing halt fails" false
    (Load.passed { r with Load.halted = [ 0 ] });
  Alcotest.(check bool) "an unrequested halt fails" false
    (Load.passed { r with Load.halted = [ 0; 1; 2 ] });
  Alcotest.(check bool) "an unfinished survivor fails" false
    (Load.passed { r with Load.survivors_completed = false })

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_report_text () =
  let text r = Fmt.str "%a" Load.pp_report r in
  let crash_free = text (Load.run ~clients:2 ~ops_per_client:50 ()) in
  let crash = text (Load.run ~halts:1 ~clients:2 ~ops_per_client:3 ()) in
  List.iter
    (fun text ->
      Alcotest.(check bool) ("one rate unit: " ^ text) false
        (contains ~sub:"/s ops/s" text);
      Alcotest.(check bool) ("ops/s printed: " ^ text) true
        (contains ~sub:" ops/s" text))
    [ crash_free; crash ];
  Alcotest.(check bool) "crash-free latency quantiles" true
    (contains ~sub:"latency p50=" crash_free);
  Alcotest.(check bool) "crash runs time no operations" true
    (contains ~sub:"latency n/a" crash && not (contains ~sub:"p50=" crash))

let test_load_crash_capacity_guard () =
  (match
     Service.Load.run ~halts:1 ~clients:4 ~ops_per_client:1000 ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized crash workload must be rejected");
  (* a negative halt count is named, not a bare List.init failure *)
  Alcotest.check_raises "halts = -1"
    (Invalid_argument "Load.run: halts must be >= 0") (fun () ->
      ignore (Service.Load.run ~halts:(-1) ~clients:3 ~ops_per_client:5 ()));
  Alcotest.check_raises "halts = clients"
    (Invalid_argument "Load.run: halts must be < clients") (fun () ->
      ignore (Load.run ~halts:2 ~clients:2 ~ops_per_client:7 ()));
  Alcotest.check_raises "ops_per_client = -1"
    (Invalid_argument "Load.run: ops_per_client") (fun () ->
      ignore (Load.run ~halts:2 ~clients:4 ~ops_per_client:(-1) ()));
  Alcotest.check_raises "clients = 0" (Invalid_argument "Load.run: clients")
    (fun () -> ignore (Load.run ~clients:0 ~ops_per_client:7 ()))

(* Random scripts through the service agree with the sequential fold —
   the qcheck face of the differential check, across every default
   object and a range of window sizes (including 1: every node a
   snapshot). *)
let prop_service_differential =
  QCheck2.Test.make ~name:"service ≡ sequential fold (random scripts)"
    ~count:40
    QCheck2.Gen.(
      tup4 (int_range 1 4) (int_range 1 60) (int_range 1 12) (int_range 0 2))
    (fun (clients, ops_per_client, window, which) ->
      let spec =
        match which with
        | 0 -> Zoo.queue ()
        | 1 -> Collections.counter ()
        | _ -> Collections.kv_map ()
      in
      let r =
        Service.Load.run ~seed:(clients + ops_per_client) ~window ~spec
          ~clients ~ops_per_client ()
      in
      Service.Load.passed r && r.Service.Load.differential_ok = Some true)

let prop_service_crash_linearizable =
  QCheck2.Test.make ~name:"service linearizes under halt-k-of-n" ~count:15
    QCheck2.Gen.(tup2 (int_range 2 4) (int_range 1 3))
    (fun (clients, halts) ->
      QCheck2.assume (halts < clients);
      let r =
        Service.Load.run ~seed:42 ~window:4 ~halts ~clients ~ops_per_client:6
          ()
      in
      Service.Load.passed r && r.Service.Load.linearizable = Some true)

let suite =
  [
    ( "runtime.service",
      [
        Alcotest.test_case "closed-loop load: queue" `Quick test_load_queue;
        Alcotest.test_case "closed-loop load: counter" `Quick
          test_load_counter;
        Alcotest.test_case "closed-loop load: kv-map" `Quick test_load_kv_map;
        Alcotest.test_case "load under crashes linearizes" `Quick
          test_load_with_crashes;
        Alcotest.test_case "crash-mode capacity guard" `Quick
          test_load_crash_capacity_guard;
        Alcotest.test_case "halted clients leave pending ops, history \
                            linearizes"
          `Quick test_crash_grid;
        Alcotest.test_case "requested halts need ops" `Quick
          test_halts_need_ops;
        Alcotest.test_case "passed needs every halt and survivor" `Quick
          test_passed_needs_halts_and_survivors;
        Alcotest.test_case "report text" `Quick test_report_text;
      ] );
    ( "runtime.service-differential",
      List.map QCheck_alcotest.to_alcotest
        [ prop_service_differential; prop_service_crash_linearizable ] );
  ]
