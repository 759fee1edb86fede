(* The universal object service: registry, closed-loop load harness,
   differential and crash-mode linearizability checks. *)

open Wfs_runtime
open Wfs_spec

let test_registry () =
  let s = Service.create ~n:2 () in
  Alcotest.(check (list string))
    "default objects"
    [ "fifo-queue"; "counter"; "kv-map" ]
    (Service.names s);
  let h = Service.find s "counter" in
  Alcotest.(check bool) "apply works" true
    (Value.equal (h.Service.apply ~pid:0 Collections.incr) (Value.int 1));
  Alcotest.(check int) "length counts" 1 (h.Service.length ());
  (match Service.find s "no-such-object" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument");
  match Service.create ~n:2 ~specs:[ Collections.counter (); Collections.counter () ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate names must be rejected"

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
  (* crashed clients completed fewer ops than survivors *)
  Alcotest.(check bool) "some ops completed" true (r.Service.Load.total_ops > 0)

let test_load_crash_capacity_guard () =
  (match
     Service.Load.run ~halts:1 ~clients:4 ~ops_per_client:1000 ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized crash workload must be rejected");
  (* a negative halt count is named, not a bare List.init failure *)
  Alcotest.check_raises "halts = -1"
    (Invalid_argument "Load.run: halts must be >= 0") (fun () ->
      ignore (Service.Load.run ~halts:(-1) ~clients:3 ~ops_per_client:5 ()))

let test_serve () =
  let r = Service.serve ~clients:2 ~duration_s:0.2 () in
  Alcotest.(check bool) "ops served" true (r.Service.served_ops > 0);
  let logged =
    List.fold_left (fun acc (_, l) -> acc + l) 0 r.Service.per_object
  in
  Alcotest.(check int) "every op threaded" r.Service.served_ops logged

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
        Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "closed-loop load: queue" `Quick test_load_queue;
        Alcotest.test_case "closed-loop load: counter" `Quick
          test_load_counter;
        Alcotest.test_case "closed-loop load: kv-map" `Quick test_load_kv_map;
        Alcotest.test_case "load under crashes linearizes" `Quick
          test_load_with_crashes;
        Alcotest.test_case "crash-mode capacity guard" `Quick
          test_load_crash_capacity_guard;
        Alcotest.test_case "serve drives every object" `Quick test_serve;
      ] );
    ( "runtime.service-differential",
      List.map QCheck_alcotest.to_alcotest
        [ prop_service_differential; prop_service_crash_linearizable ] );
  ]
