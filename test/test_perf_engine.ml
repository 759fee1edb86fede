(* Differential tests for the exploration engine: the interned
   fused-DP explorer must be observationally identical to the
   recursive two-pass reference in [Explorer_oracle], on every protocol
   in the registry and on hand-made cyclic, stuck and invalid-decision
   configs, under every budget kind and under a crash budget.
   Also: the symmetry quotient agrees with the full graph on every
   verdict, and the interner's properties hold under qcheck. *)

open Wfs_spec
open Wfs_sim
open Wfs_consensus
open Wfs_hierarchy

let value = Alcotest.testable Value.pp Value.equal

(* --- explorer: engine vs reference oracle --- *)

(* Terminals are reported as a set; compare them order-insensitively
   through their canonical encodings. *)
let terminal_encodings (stats : Explorer.stats) =
  List.sort Value.compare
    (List.map
       (fun (t : Explorer.terminal) ->
         Value.pair
           (Value.list
              (Array.to_list (Array.map Value.of_option t.Explorer.decisions)))
           (Value.pair
              (Value.int t.Explorer.who_stepped)
              (Value.int t.Explorer.who_crashed)))
       stats.Explorer.terminals)

let truncation_str = function
  | None -> "none"
  | Some Explorer.Budget_states -> "states"
  | Some Explorer.Budget_depth -> "depth"

let check_stats_equal name (a : Explorer.stats) (b : Explorer.stats) =
  Alcotest.(check int)
    (name ^ ": states") a.Explorer.states b.Explorer.states;
  Alcotest.(check bool)
    (name ^ ": cyclic") a.Explorer.cyclic b.Explorer.cyclic;
  Alcotest.(check (option (pair int string)))
    (name ^ ": stuck") a.Explorer.stuck b.Explorer.stuck;
  Alcotest.(check bool)
    (name ^ ": truncated") a.Explorer.truncated b.Explorer.truncated;
  Alcotest.(check string)
    (name ^ ": truncation cause")
    (truncation_str a.Explorer.truncation)
    (truncation_str b.Explorer.truncation);
  Alcotest.(check bool)
    (name ^ ": wait_free")
    (Explorer.wait_free a) (Explorer.wait_free b);
  Alcotest.(check (option (array int)))
    (name ^ ": step_bounds") a.Explorer.step_bounds b.Explorer.step_bounds;
  Alcotest.(check (list value))
    (name ^ ": terminals")
    (terminal_encodings a) (terminal_encodings b);
  Alcotest.(check (list (pair int value)))
    (name ^ ": invalid_decisions")
    a.Explorer.invalid_decisions b.Explorer.invalid_decisions

(* Every sound registry protocol, at every size it supports in {2, 3},
   fully explored and under each budget kind: the budgets exercise the
   engines' truncation-order agreement, not just the happy path. *)
let registry_protocols () =
  List.concat_map
    (fun (e : Registry.entry) ->
      List.filter_map
        (fun n ->
          Option.map
            (fun p -> (Fmt.str "%s n=%d" e.Registry.key n, p))
            (e.Registry.build ~n))
        [ 2; 3 ])
    Registry.entries

let check_against_oracle name config =
  let check ?max_states ?max_depth ?crashes label =
    check_stats_equal (name ^ label)
      (Explorer_oracle.explore ?max_states ?max_depth ?crashes config)
      (Explorer.explore ?max_states ?max_depth ?crashes config)
  in
  check "";
  check ~max_states:40 " [max_states=40]";
  check ~max_depth:3 " [max_depth=3]";
  check ~crashes:1 " [crashes=1]"

let test_explorer_differential () =
  List.iter
    (fun (name, (p : Protocol.t)) -> check_against_oracle name p.Protocol.config)
    (registry_protocols ())

(* --- symmetry quotient vs full graph ---

   Only legal for identical pid-independent programs; verdicts must
   agree while the quotient explores no more states than the full
   graph. *)

(* Everybody races a test-and-set and decides from the response alone. *)
let symmetric_tas_config n =
  let proc pid =
    Process.make ~pid ~init:(Process.at 0) (fun local ->
        match Process.pc local with
        | 0 ->
            Process.invoke ~obj:"t" Registers.tas (fun res ->
                Process.at 1 ~data:res)
        | 1 ->
            Process.decide
              (if Value.equal (Process.data local) (Value.int 0) then
                 Value.int 0
               else Value.int 1)
        | _ -> assert false)
  in
  {
    Explorer.procs = Array.init n proc;
    env = Env.make [ ("t", Zoo.test_and_set ()) ];
  }

(* Everybody spins on a register nobody writes: a symmetric cycle. *)
let symmetric_spin_config n =
  let proc pid =
    Process.make ~pid ~init:(Process.at 0) (fun local ->
        match Process.pc local with
        | 0 ->
            Process.invoke ~obj:"r" Registers.read (fun res ->
                if Value.is_bottom res then Process.at 0
                else Process.at 1 ~data:res)
        | 1 -> Process.decide (Process.data local)
        | _ -> assert false)
  in
  {
    Explorer.procs = Array.init n proc;
    env =
      Env.make
        [ ("r", Registers.atomic ~name:"r" ~init:Value.bottom [ Value.int 1 ]) ];
  }

(* P0 applies test-and-set to a read/write register: the engines must
   agree on the stuck report. *)
let unknown_op_config () =
  let bad =
    Process.make ~pid:0 ~init:(Process.at 0) (fun local ->
        match Process.pc local with
        | 0 -> Process.invoke ~obj:"r" Registers.tas (fun _ -> Process.at 1)
        | 1 -> Process.decide (Value.int 0)
        | _ -> assert false)
  in
  let good =
    Process.make ~pid:1 ~init:(Process.at 0) (fun _ ->
        Process.decide (Value.int 1))
  in
  {
    Explorer.procs = [| bad; good |];
    env =
      Env.make
        [ ("r", Registers.atomic ~name:"r" ~init:Value.bottom [ Value.int 1 ]) ];
  }

(* Everybody reads a register once, then decides the next pid's input:
   valid only on schedules where that pid has already stepped. *)
let borrowed_decision_config n =
  let proc pid =
    Process.make ~pid ~init:(Process.at 0) (fun local ->
        match Process.pc local with
        | 0 -> Process.invoke ~obj:"r" Registers.read (fun _ -> Process.at 1)
        | 1 -> Process.decide (Value.int ((pid + 1) mod n))
        | _ -> assert false)
  in
  {
    Explorer.procs = Array.init n proc;
    env =
      Env.make
        [ ("r", Registers.atomic ~name:"r" ~init:Value.bottom [ Value.int 1 ]) ];
  }

(* The sound registry protocols are acyclic and never stuck; these
   hand-made configs drive the cyclic, stuck and invalid-decision
   branches through both engines. *)
let test_explorer_differential_handmade () =
  check_against_oracle "unknown-op" (unknown_op_config ());
  List.iter
    (fun n ->
      check_against_oracle (Fmt.str "sym-tas n=%d" n) (symmetric_tas_config n);
      check_against_oracle (Fmt.str "sym-spin n=%d" n) (symmetric_spin_config n);
      check_against_oracle
        (Fmt.str "borrowed-decision n=%d" n)
        (borrowed_decision_config n))
    [ 2; 3 ];
  (* the configs really reach those branches *)
  let spin = Explorer.explore (symmetric_spin_config 2) in
  Alcotest.(check bool) "sym-spin is cyclic" true spin.Explorer.cyclic;
  let stuck = Explorer.explore (unknown_op_config ()) in
  Alcotest.(check bool) "unknown-op is stuck" true (stuck.Explorer.stuck <> None);
  let borrowed = Explorer.explore (borrowed_decision_config 2) in
  Alcotest.(check bool)
    "borrowed-decision has invalid decides" true
    (borrowed.Explorer.invalid_decisions <> []);
  Alcotest.(check bool)
    "borrowed-decision has valid terminals" true
    (borrowed.Explorer.terminals <> [])

let check_symmetry_agrees name config =
  let full = Explorer.explore config in
  let quot = Explorer.explore ~symmetry:true config in
  Alcotest.(check bool)
    (name ^ ": cyclic agrees") full.Explorer.cyclic quot.Explorer.cyclic;
  Alcotest.(check bool)
    (name ^ ": wait_free agrees")
    (Explorer.wait_free full) (Explorer.wait_free quot);
  (* Orbit collapsing permutes pid labels along quotient paths, so the
     per-process bounds are a sound over-approximation, not an exact
     match: both must exist (or not) together, and the quotient's worst
     case must dominate the true worst case. *)
  (match (full.Explorer.step_bounds, quot.Explorer.step_bounds) with
  | None, None -> ()
  | Some fb, Some qb ->
      let max_of = Array.fold_left max 0 in
      Alcotest.(check bool)
        (name ^ ": quotient bounds dominate")
        true
        (max_of qb >= max_of fb)
  | Some _, None | None, Some _ ->
      Alcotest.fail (name ^ ": step_bounds presence disagrees"));
  Alcotest.(check bool)
    (name ^ ": quotient no larger") true
    (quot.Explorer.states <= full.Explorer.states);
  (full.Explorer.states, quot.Explorer.states)

let test_symmetry () =
  List.iter
    (fun n ->
      let full, quot =
        check_symmetry_agrees
          (Fmt.str "sym-tas n=%d" n)
          (symmetric_tas_config n)
      in
      if n >= 3 then
        Alcotest.(check bool)
          (Fmt.str "sym-tas n=%d: quotient strictly smaller" n)
          true (quot < full);
      ignore
        (check_symmetry_agrees
           (Fmt.str "sym-spin n=%d" n)
           (symmetric_spin_config n)))
    [ 2; 3 ]

(* --- symmetry quotient combined with a crash budget ---

   Crash transitions are symmetric too (any orbit member may crash), so
   the quotient remains sound under fault injection.  The oracle has no
   symmetry support, so the reference comparison is two-legged: engine
   = oracle exactly on the full crash-augmented graph, and the
   crash-augmented quotient agrees with that reference graph on every
   verdict. *)

let test_symmetry_with_crashes () =
  List.iter
    (fun n ->
      List.iter
        (fun (cname, config) ->
          let name = Fmt.str "%s n=%d crashes=1" cname n in
          let full = Explorer.explore ~crashes:1 config in
          (* engine vs oracle on the full crash-augmented graph *)
          check_stats_equal
            (name ^ " [full]")
            (Explorer_oracle.explore ~crashes:1 config)
            full;
          (* crash-augmented quotient vs the full graph *)
          let quot = Explorer.explore ~symmetry:true ~crashes:1 config in
          Alcotest.(check bool)
            (name ^ ": cyclic agrees") full.Explorer.cyclic
            quot.Explorer.cyclic;
          Alcotest.(check bool)
            (name ^ ": wait_free agrees")
            (Explorer.wait_free full) (Explorer.wait_free quot);
          Alcotest.(check bool)
            (name ^ ": quotient no larger") true
            (quot.Explorer.states <= full.Explorer.states);
          (match (full.Explorer.step_bounds, quot.Explorer.step_bounds) with
          | None, None -> ()
          | Some fb, Some qb ->
              let max_of = Array.fold_left max 0 in
              Alcotest.(check bool)
                (name ^ ": quotient bounds dominate")
                true
                (max_of qb >= max_of fb)
          | Some _, None | None, Some _ ->
              Alcotest.fail (name ^ ": step_bounds presence disagrees"));
          if n >= 3 then
            Alcotest.(check bool)
              (name ^ ": quotient strictly smaller") true
              (quot.Explorer.states < full.Explorer.states))
        [
          ("sym-tas", symmetric_tas_config n);
          ("sym-spin", symmetric_spin_config n);
        ])
    [ 2; 3 ]

(* --- solver verdicts as comparable strings (engine.por, engine.tt) --- *)

let action_str a = Fmt.str "%a" Solver.pp_action a

let assignment_sig (a : Solver.assignment) =
  Fmt.str "P%d @ %a -> %s" a.Solver.pid Value.pp a.Solver.view
    (action_str a.Solver.chosen)

let verdict_sig = function
  | Solver.Unsolvable -> [ "UNSOLVABLE" ]
  | Solver.Out_of_budget { nodes } -> [ Fmt.str "BUDGET %d" nodes ]
  | Solver.Solvable assignments ->
      "SOLVABLE" :: List.sort String.compare (List.map assignment_sig assignments)

(* --- interner and full-depth hash properties --- *)

let rec deep_copy = function
  | Value.Unit -> Value.unit
  | Value.Bool b -> Value.bool b
  | Value.Int i -> Value.int i
  | Value.Str s -> Value.str (String.init (String.length s) (String.get s))
  | Value.Pair (a, b) -> Value.pair (deep_copy a) (deep_copy b)
  | Value.List vs -> Value.list (List.map deep_copy vs)

let prop_intern_iff_equal =
  QCheck2.Test.make ~name:"intern ids coincide iff Value.equal" ~count:300
    (QCheck2.Gen.pair Test_value.value_gen Test_value.value_gen)
    (fun (a, b) ->
      let t = Intern.create () in
      (Intern.intern t a = Intern.intern t b) = Value.equal a b)

let prop_intern_copy_stable =
  QCheck2.Test.make ~name:"structural copies intern to the same id"
    ~count:300 Test_value.value_gen (fun v ->
      let t = Intern.create () in
      Intern.intern t v = Intern.intern t (deep_copy v))

let prop_intern_roundtrip =
  QCheck2.Test.make ~name:"Intern.value inverts intern" ~count:300
    Test_value.value_gen (fun v ->
      let t = Intern.create () in
      Value.equal (Intern.value t (Intern.intern t v)) v)

let prop_hash_full_respects_equal =
  QCheck2.Test.make ~name:"hash_full agrees on structural copies"
    ~count:500 Test_value.value_gen (fun v ->
      Value.hash_full v = Value.hash_full (deep_copy v))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_intern_iff_equal;
      prop_intern_copy_stable;
      prop_intern_roundtrip;
      prop_hash_full_respects_equal;
    ]

let suite =
  [
    ( "engine.differential",
      [
        Alcotest.test_case "explorer: oracle = engine on registry" `Quick
          test_explorer_differential;
        Alcotest.test_case "explorer: oracle = engine off the registry" `Quick
          test_explorer_differential_handmade;
        Alcotest.test_case "symmetry quotient agrees" `Quick test_symmetry;
        Alcotest.test_case "symmetry quotient under crash faults" `Quick
          test_symmetry_with_crashes;
      ] );
    ("engine.intern", qsuite);
  ]
