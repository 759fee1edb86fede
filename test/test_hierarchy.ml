(* Interference classification (Theorem 6), the bounded-protocol solver
   (Theorems 2, 4, 7, 9, 11), and the Figure 1-1 table. *)

open Wfs_spec
open Wfs_hierarchy

let int_domain = [ Value.int 0; Value.int 1; Value.int 2 ]

(* --- interference classifier --- *)

let concrete_of ops = Interference.concretize ops

let test_reads_commute () =
  match concrete_of [ Registers.read_op ] with
  | [ read ] ->
      Alcotest.(check bool)
        "read commutes with read" true
        (Interference.classify_pair ~domain:int_domain read read
        = Interference.Commute)
  | _ -> Alcotest.fail "expected one concrete read"

let test_writes_overwrite () =
  match concrete_of [ Registers.write_ops [ Value.int 1; Value.int 2 ] ] with
  | [ w1; w2 ] ->
      let c = Interference.classify_pair ~domain:int_domain w1 w2 in
      Alcotest.(check bool)
        "writes overwrite each other" true
        (c = Interference.First_overwrites || c = Interference.Second_overwrites)
  | _ -> Alcotest.fail "expected two concrete writes"

let test_tas_faa_interfere () =
  (* tas overwrites faa: tas(faa v) = 1 = tas v *)
  let tas = List.hd (concrete_of [ Registers.test_and_set_op ]) in
  let faa = List.hd (concrete_of [ Registers.fetch_and_add_op [ 1 ] ]) in
  Alcotest.(check bool)
    "pair interferes" true
    (Interference.classify_pair ~domain:int_domain tas faa
    <> Interference.Interfering_not)

let test_cas_escapes () =
  let cs = concrete_of [ Registers.compare_and_swap_op int_domain ] in
  Alcotest.(check bool)
    "cas set is NOT interfering" false
    (Interference.interfering ~domain:int_domain cs);
  Alcotest.(check bool)
    "non-interfering pair witnessed" true
    (Interference.non_interfering_pairs ~domain:int_domain cs <> [])

let test_classify_registers_level1 () =
  let v =
    Interference.classify ~family:"registers" ~domain:int_domain
      [ Registers.read_op; Registers.write_ops int_domain ]
  in
  Alcotest.(check bool) "interfering" true v.Interference.interfering_set;
  Alcotest.(check bool)
    "no observable nontrivial op" false
    v.Interference.has_observable_nontrivial;
  Alcotest.(check bool) "level 1" true (v.Interference.level = `Level_1)

let test_classify_classical_level2 () =
  let v =
    Interference.classify ~family:"classical" ~domain:int_domain
      [
        Registers.read_op;
        Registers.write_ops int_domain;
        Registers.test_and_set_op;
        Registers.swap_op int_domain;
        Registers.fetch_and_add_op [ 1 ];
      ]
  in
  Alcotest.(check bool) "interfering" true v.Interference.interfering_set;
  Alcotest.(check bool) "level 2" true (v.Interference.level = `Level_2)

let test_classify_cas_above2 () =
  let v =
    Interference.classify ~family:"cas" ~domain:int_domain
      [ Registers.read_op; Registers.compare_and_swap_op int_domain ]
  in
  Alcotest.(check bool) "above 2" true (v.Interference.level = `Above_2)

let test_observable_nontrivial () =
  let write = List.hd (concrete_of [ Registers.write_ops [ Value.int 1 ] ]) in
  Alcotest.(check bool)
    "write is blind" false
    (Interference.observable_nontrivial ~domain:int_domain write);
  let tas = List.hd (concrete_of [ Registers.test_and_set_op ]) in
  Alcotest.(check bool)
    "tas observes" true
    (Interference.observable_nontrivial ~domain:int_domain tas)

(* --- solver --- *)

let binary_register () =
  Registers.atomic ~name:"r" ~init:(Value.int 0) [ Value.int 0; Value.int 1 ]

let preloaded_queue () =
  Queues.fifo ~name:"q"
    ~initial:[ Value.str "a"; Value.str "b" ]
    ~items:[ Value.str "a"; Value.str "b" ]
    ()

let solve ?max_nodes ~n ~depth spec =
  Solver.solve ?max_nodes (Solver.of_spec ~n ~depth spec)

let is_solvable = function Solver.Solvable _ -> true | _ -> false
let is_unsolvable = function Solver.Unsolvable -> true | _ -> false

let test_thm2_registers_unsolvable () =
  (* Theorem 2, bounded form: no ≤2-step register protocol for 2
     processes *)
  Alcotest.(check bool) "d=1" true (is_unsolvable (solve ~n:2 ~depth:1 (binary_register ())));
  Alcotest.(check bool) "d=2" true (is_unsolvable (solve ~n:2 ~depth:2 (binary_register ())))

let test_thm4_tas_solvable () =
  match solve ~n:2 ~depth:1 (Registers.test_and_set ()) with
  | Solver.Solvable strategy ->
      (* the synthesized protocol starts with the test-and-set *)
      let initial_actions =
        List.filter
          (fun a -> Value.equal a.Solver.view (Value.list []))
          strategy
      in
      Alcotest.(check int) "both processes have initial actions" 2
        (List.length initial_actions);
      List.iter
        (fun a ->
          match a.Solver.chosen with
          | Solver.Do (_, op) ->
              Alcotest.(check string) "first step is tas" "test-and-set"
                (Op.name op)
          | Solver.Decide _ -> Alcotest.fail "decided without stepping")
        initial_actions
  | v -> Alcotest.failf "expected solvable, got %a" Solver.pp_verdict v

let test_thm6_tas_unsolvable_3 () =
  Alcotest.(check bool) "tas n=3 d=1" true
    (is_unsolvable (solve ~n:3 ~depth:1 (Registers.test_and_set ())))

let test_thm7_cas_solvable () =
  Alcotest.(check bool) "cas n=2 d=1" true
    (is_solvable
       (solve ~n:2 ~depth:1
          (Registers.compare_and_swap ~name:"r" ~init:Value.bottom
             [ Value.bottom; Value.pid 0; Value.pid 1 ])));
  Alcotest.(check bool) "cas n=3 d=1" true
    (is_solvable
       (solve ~n:3 ~depth:1
          (Registers.compare_and_swap ~name:"r" ~init:Value.bottom
             [ Value.bottom; Value.pid 0; Value.pid 1; Value.pid 2 ])))

let test_thm9_queue_solvable () =
  Alcotest.(check bool) "queue n=2 d=1" true
    (is_solvable (solve ~n:2 ~depth:1 (preloaded_queue ())))

let test_thm11_queue_unsolvable_3 () =
  Alcotest.(check bool) "queue n=3 d=1" true
    (is_unsolvable (solve ~n:3 ~depth:1 (preloaded_queue ())))

let test_thm11_queue_unsolvable_3_d2 () =
  (* the expensive instance: no 3-process queue protocol with ≤ 2 ops *)
  Alcotest.(check bool) "queue n=3 d=2" true
    (is_unsolvable
       (solve ~max_nodes:100_000_000 ~n:3 ~depth:2 (preloaded_queue ())))

let test_dds_fifo_channel_unsolvable () =
  Alcotest.(check bool) "fifo channel n=2 d=2" true
    (is_unsolvable
       (solve ~n:2 ~depth:2
          (Channels.fifo_point_to_point ~name:"ch" ~processes:2
             ~messages:[ Value.pid 0; Value.pid 1 ]
             ())))

let test_budget_reported () =
  match
    Solver.solve ~max_nodes:100
      (Solver.of_spec ~n:3 ~depth:2 (preloaded_queue ()))
  with
  | Solver.Out_of_budget { nodes } ->
      Alcotest.(check bool) "nodes counted" true (nodes > 0)
  | _ -> Alcotest.fail "expected budget exhaustion with tiny limit"

(* out-of-range sizes are input errors, not verdicts: n = 0 used to die
   on an array index and a negative depth to report UNSOLVABLE *)
let test_of_spec_rejects_bad_sizes () =
  let spec = preloaded_queue () in
  Alcotest.check_raises "n = 0" (Invalid_argument "Solver.of_spec: n < 1")
    (fun () -> ignore (Solver.of_spec ~n:0 ~depth:2 spec));
  Alcotest.check_raises "depth = -1"
    (Invalid_argument "Solver.of_spec: depth < 0") (fun () ->
      ignore (Solver.of_spec ~n:2 ~depth:(-1) spec));
  Alcotest.check_raises "census depth = -1"
    (Invalid_argument "Solver.of_spec: depth < 0") (fun () ->
      ignore (Census.measure ~depth2:(-1) spec))

(* the guards' edges are legal sizes: one process decides its own input
   without a step, two cannot agree without one *)
let test_of_spec_boundary_sizes () =
  let spec = preloaded_queue () in
  Alcotest.(check bool) "n = 1, depth = 0 solvable" true
    (is_solvable (solve ~n:1 ~depth:0 spec));
  Alcotest.(check bool) "n = 2, depth = 0 unsolvable" true
    (is_unsolvable (solve ~n:2 ~depth:0 spec))

(* the synthesized strategy, replayed through the simulator, must verify *)
let test_synthesized_strategy_verifies () =
  let spec = Registers.test_and_set () in
  match solve ~n:2 ~depth:1 spec with
  | Solver.Solvable strategy ->
      let open Wfs_sim in
      let program pid local =
        let view = local in
        let entry =
          List.find_opt
            (fun a -> a.Solver.pid = pid && Value.equal a.Solver.view view)
            strategy
        in
        match entry with
        | Some { Solver.chosen = Solver.Do (obj, op); _ } ->
            Process.invoke ~obj op (fun res ->
                Value.list (res :: Value.as_list view))
        | Some { Solver.chosen = Solver.Decide j; _ } ->
            Process.decide (Value.pid j)
        | None -> Alcotest.failf "no strategy entry for P%d" pid
      in
      let procs =
        Array.init 2 (fun pid ->
            Process.make ~pid ~init:(Value.list []) (program pid))
      in
      let env = Env.make [ (spec.Object_spec.name, spec) ] in
      let p =
        Wfs_consensus.Protocol.make ~name:"synthesized-tas" ~theorem:"Thm 4"
          ~procs ~env
      in
      let report = Wfs_consensus.Protocol.verify p in
      Alcotest.(check bool) "synthesized protocol passes" true
        (Wfs_consensus.Protocol.passed report)
  | v -> Alcotest.failf "expected solvable, got %a" Solver.pp_verdict v

(* --- the Figure 1-1 table --- *)

let test_table_consistent () =
  let table = Table.generate () in
  Alcotest.(check bool) "every row consistent with the paper" true
    (Table.consistent table);
  Alcotest.(check bool) "covers the object families" true
    (List.length table >= 14)

let test_table_rows_have_evidence () =
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (Fmt.str "%s has evidence" row.Table.object_family)
        true
        (row.Table.evidence <> []))
    (Table.generate ())

let suite =
  [
    ( "hierarchy.interference",
      [
        Alcotest.test_case "reads commute" `Quick test_reads_commute;
        Alcotest.test_case "writes overwrite" `Quick test_writes_overwrite;
        Alcotest.test_case "tas/faa interfere" `Quick test_tas_faa_interfere;
        Alcotest.test_case "cas escapes Thm 6" `Quick test_cas_escapes;
        Alcotest.test_case "registers level 1" `Quick
          test_classify_registers_level1;
        Alcotest.test_case "classical level 2" `Quick
          test_classify_classical_level2;
        Alcotest.test_case "cas above 2" `Quick test_classify_cas_above2;
        Alcotest.test_case "write is blind" `Quick test_observable_nontrivial;
      ] );
    ( "hierarchy.solver",
      [
        Alcotest.test_case "Thm 2: registers unsolvable" `Quick
          test_thm2_registers_unsolvable;
        Alcotest.test_case "Thm 4: tas synthesized" `Quick
          test_thm4_tas_solvable;
        Alcotest.test_case "Thm 6: tas n=3 unsolvable" `Quick
          test_thm6_tas_unsolvable_3;
        Alcotest.test_case "Thm 7: cas solvable" `Quick test_thm7_cas_solvable;
        Alcotest.test_case "Thm 9: queue solvable" `Quick
          test_thm9_queue_solvable;
        Alcotest.test_case "Thm 11: queue n=3 d=1 unsolvable" `Quick
          test_thm11_queue_unsolvable_3;
        Alcotest.test_case "Thm 11: queue n=3 d=2 unsolvable" `Slow
          test_thm11_queue_unsolvable_3_d2;
        Alcotest.test_case "DDS: fifo channel unsolvable" `Quick
          test_dds_fifo_channel_unsolvable;
        Alcotest.test_case "budget reporting" `Quick test_budget_reported;
        Alcotest.test_case "of_spec rejects bad sizes" `Quick
          test_of_spec_rejects_bad_sizes;
        Alcotest.test_case "of_spec accepts boundary sizes" `Quick
          test_of_spec_boundary_sizes;
        Alcotest.test_case "synthesized strategy verifies" `Quick
          test_synthesized_strategy_verifies;
      ] );
    ( "hierarchy.table",
      [
        Alcotest.test_case "Figure 1-1 consistent" `Quick test_table_consistent;
        Alcotest.test_case "rows have evidence" `Quick
          test_table_rows_have_evidence;
      ] );
  ]

(* --- the solver-measured census --- *)

let test_census_register () =
  let m = Census.measure (Zoo.register ()) in
  Alcotest.(check bool) "register n=2 unsolvable" true
    (fst m.Census.two_proc = Census.Unsolvable);
  Alcotest.(check bool) "register n=3 unsolvable" true
    (fst m.Census.three_proc = Census.Unsolvable)

let test_census_tas () =
  let m = Census.measure (Zoo.test_and_set ()) in
  Alcotest.(check bool) "tas n=2 solvable" true
    (fst m.Census.two_proc = Census.Solvable);
  Alcotest.(check bool) "tas n=3 unsolvable" true
    (fst m.Census.three_proc = Census.Unsolvable)

let test_census_cas () =
  let m = Census.measure (Zoo.compare_and_swap ()) in
  Alcotest.(check bool) "cas n=2 solvable" true
    (fst m.Census.two_proc = Census.Solvable);
  Alcotest.(check bool) "cas n=3 solvable" true
    (fst m.Census.three_proc = Census.Solvable)

let test_census_consensus_object () =
  let m = Census.measure ~depth2:1 ~depth3:1 (Zoo.consensus ()) in
  Alcotest.(check bool) "consensus object solvable at both" true
    (fst m.Census.two_proc = Census.Solvable
    && fst m.Census.three_proc = Census.Solvable)

let census_suite =
  ( "hierarchy.census",
    [
      Alcotest.test_case "register" `Quick test_census_register;
      Alcotest.test_case "test-and-set" `Quick test_census_tas;
      Alcotest.test_case "compare-and-swap" `Quick test_census_cas;
      Alcotest.test_case "consensus object" `Quick test_census_consensus_object;
    ] )

let suite = suite @ [ census_suite ]

(* the census discovers the paper's queue pre-loading trick on its own *)
let test_census_queue_preloading_discovered () =
  let m =
    Census.measure
      (Queues.fifo ~name:"q" ~items:[ Value.str "a"; Value.str "b" ] ())
  in
  Alcotest.(check bool) "queue n=2 solvable from some init" true
    (fst m.Census.two_proc = Census.Solvable);
  (match m.Census.winning_init2 with
  | Some init ->
      Alcotest.(check bool) "winning init is non-empty" true
        (Value.as_list init <> [])
  | None -> Alcotest.fail "expected a winning initialization");
  Alcotest.(check bool) "queue n=3 unsolvable at d=1" true
    (fst m.Census.three_proc = Census.Unsolvable)

let census_discovery_suite =
  ( "hierarchy.census.discovery",
    [ Alcotest.test_case "queue pre-loading discovered" `Quick
        test_census_queue_preloading_discovered ] )

let suite = suite @ [ census_discovery_suite ]

(* every synthesized strategy must itself verify, for several objects *)
let replay_strategy_as_protocol ~n spec strategy =
  let open Wfs_sim in
  let program pid local =
    let entry =
      List.find_opt
        (fun a -> a.Solver.pid = pid && Value.equal a.Solver.view local)
        strategy
    in
    match entry with
    | Some { Solver.chosen = Solver.Do (obj, op); _ } ->
        Process.invoke ~obj op (fun res ->
            Value.list (res :: Value.as_list local))
    | Some { Solver.chosen = Solver.Decide j; _ } -> Process.decide (Value.pid j)
    | None -> Alcotest.failf "no strategy entry for P%d at %a" pid Value.pp local
  in
  let procs =
    Array.init n (fun pid -> Process.make ~pid ~init:(Value.list []) (program pid))
  in
  let env = Env.make [ (spec.Object_spec.name, spec) ] in
  Wfs_consensus.Protocol.make ~name:"synthesized" ~theorem:"solver" ~procs ~env

let test_synthesized_strategies_verify_many () =
  let cases =
    [
      (2, 1, Registers.test_and_set ());
      (2, 1, preloaded_queue ());
      (2, 1,
       Registers.compare_and_swap ~name:"r" ~init:Value.bottom
         [ Value.bottom; Value.pid 0; Value.pid 1 ]);
      (3, 1,
       Registers.compare_and_swap ~name:"r" ~init:Value.bottom
         [ Value.bottom; Value.pid 0; Value.pid 1; Value.pid 2 ]);
      (2, 2, Registers.fetch_and_add ~name:"faa" ~init:0 ());
    ]
  in
  List.iter
    (fun (n, depth, spec) ->
      match Solver.solve (Solver.of_spec ~n ~depth spec) with
      | Solver.Solvable strategy ->
          let p = replay_strategy_as_protocol ~n spec strategy in
          let report = Wfs_consensus.Protocol.verify p in
          Alcotest.(check bool)
            (Fmt.str "%s n=%d verifies" spec.Object_spec.name n)
            true
            (Wfs_consensus.Protocol.passed report)
      | v ->
          Alcotest.failf "%s n=%d: expected solvable, got %a"
            spec.Object_spec.name n Solver.pp_verdict v)
    cases

let synthesized_suite =
  ( "hierarchy.synthesis",
    [ Alcotest.test_case "synthesized strategies verify" `Quick
        test_synthesized_strategies_verify_many ] )

let suite = suite @ [ synthesized_suite ]
