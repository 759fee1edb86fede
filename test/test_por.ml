(* Tests for the sleep-set partial-order reductions beyond the oracle
   differentials: the explorer's reduction stays off under the symmetry
   quotient and above 16 processes; [find_violation] agrees with
   [verify]; and both reductions actually fire.  Equality with the
   unreduced searches is checked against the reference oracles in
   engine.differential (explorer) and engine.tt (solver); the reduction
   under 2- and 4-domain pools in engine.parallel. *)

open Wfs_spec
open Wfs_sim
open Wfs_consensus
open Wfs_hierarchy

let check_stats_equal = Test_perf_engine.check_stats_equal

let counter name =
  Option.value ~default:0 (Wfs_obs.Metrics.counter_value name)

let pruned () = counter "explorer.por.pruned"

(* --- the explorer's reduction is off exactly where the code says --- *)

(* Pruned edges and stats of one sym-tas run (see [symmetric_tas_config]). *)
let sym_tas ?max_states ?symmetry n =
  let e0 = pruned () in
  let config = Test_perf_engine.symmetric_tas_config n in
  let stats = Explorer.explore ?max_states ?symmetry config in
  (pruned () - e0, config, stats)

(* sym-tas n=3 prunes on the full graph ("reductions actually fire"),
   never under the quotient *)
let test_symmetry_guard () =
  List.iter
    (fun n ->
      let cut, _, stats = sym_tas ~symmetry:true n in
      Alcotest.(check int) (Fmt.str "n=%d: no pruned edges" n) 0 cut;
      Alcotest.(check bool) "wait-free" true (Explorer.wait_free stats))
    [ 2; 3 ]

(* Sleep masks keep q's crash at bit [q + 16], so the reduction runs for
   at most 16 processes: at 17 it is off and matches the oracle. *)
let test_process_cap_guard () =
  let cut, config, stats = sym_tas ~max_states:200 17 in
  Alcotest.(check int) "n=17: no pruned edges" 0 cut;
  check_stats_equal "n=17 [max_states=200]"
    (Explorer_oracle.explore ~max_states:200 config)
    stats;
  let cut, _, _ = sym_tas ~max_states:200 16 in
  Alcotest.(check bool) "n=16: pruned edges" true (cut > 0)

(* Every registry protocol at n=2, sound and broken: [find_violation]
   searches the unreduced graph (no sleep sets), so it returns a
   schedule exactly when [verify]'s reduced exploration reports a
   safety failure, and of the kind the report names. *)
let test_violation_matches_report () =
  List.iter
    (fun (e : Registry.entry) ->
      Option.iter
        (fun (p : Protocol.t) ->
          let r = Protocol.verify p in
          Alcotest.(check bool)
            (e.Registry.key ^ ": violation kind = report") true
            (match Option.map (fun v -> v.Protocol.kind)
                     (Protocol.find_violation p) with
            | None -> r.Protocol.agreement && r.Protocol.validity
            | Some `Disagreement -> not r.Protocol.agreement
            | Some `Invalid_decision -> not r.Protocol.validity))
        (e.Registry.build ~n:2))
    (Registry.entries @ Registry.broken)

(* --- non-vacuity: the reductions actually fire --- *)

let test_reductions_fire () =
  let e0 = pruned () in
  ignore (Explorer.explore (Test_perf_engine.symmetric_tas_config 3));
  Alcotest.(check bool) "explorer pruned edges" true (pruned () > e0);
  let s0 = counter "solver.cutoff.sleep" in
  let reg =
    Registers.atomic ~name:"r" ~init:(Value.int 0) [ Value.int 0; Value.int 1 ]
  in
  ignore (Solver.solve (Solver.of_spec ~n:2 ~depth:2 reg));
  Alcotest.(check bool)
    "solver slept branches" true
    (counter "solver.cutoff.sleep" > s0)

let suite =
  [
    ( "engine.por",
      [
        Alcotest.test_case "explorer: symmetry disables por" `Quick
          test_symmetry_guard;
        Alcotest.test_case "explorer: por off above 16 processes" `Quick
          test_process_cap_guard;
        Alcotest.test_case "find_violation agrees with verify" `Quick
          test_violation_matches_report;
        Alcotest.test_case "reductions actually fire" `Quick
          test_reductions_fire;
      ] );
  ]
