(* Differential tests for the exploration engine: the interned
   fused-DP explorer must be observationally identical to the
   recursive two-pass reference in [Explorer_oracle], on every protocol
   in the registry and on hand-made cyclic, stuck and invalid-decision
   configs, under every budget kind and under a crash budget.
   Also: the packed state key splits reachable states into the same
   classes as the oracle's structural key, and the interner's
   properties hold under qcheck. *)

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

(* --- the on_terminal hook ---

   Once per distinct terminal state, on either engine: the sequential
   run and a 2-domain pool must report the same set of keys, each
   once, and only terminal nodes. *)

let test_on_terminal_hook () =
  let collect ?pool config =
    let m = Mutex.create () in
    let keys = ref [] and non_terminal = ref 0 in
    let on_terminal node =
      Mutex.protect m (fun () ->
          keys := Explorer_oracle.key node :: !keys;
          if not (Explorer.is_terminal node) then incr non_terminal)
    in
    ignore (Explorer.explore ?pool ~on_terminal config);
    (List.sort Value.compare !keys, !non_terminal)
  in
  Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun (e : Registry.entry) ->
          Option.iter
            (fun (p : Protocol.t) ->
              let name = e.Registry.key ^ " n=2" in
              let config = p.Protocol.config in
              let seq, seq_bad = collect config in
              let par, par_bad = collect ~pool config in
              Alcotest.(check bool)
                (name ^ ": some terminal") true (seq <> []);
              Alcotest.(check int)
                (name ^ ": no duplicates")
                (List.length seq)
                (List.length (List.sort_uniq Value.compare seq));
              Alcotest.(check (list value)) (name ^ ": j=1 = j=2") seq par;
              Alcotest.(check int) (name ^ ": j=1 all terminal") 0 seq_bad;
              Alcotest.(check int) (name ^ ": j=2 all terminal") 0 par_bad)
            (e.Registry.build ~n:2))
        Registry.entries)

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
  (* the deliberately broken registry entries: same failing graph, and
     the verifier still catches them *)
  List.iter
    (fun (e : Registry.entry) ->
      Option.iter
        (fun (p : Protocol.t) ->
          let name = e.Registry.key ^ " n=2" in
          check_against_oracle name p.Protocol.config;
          Alcotest.(check bool)
            (name ^ ": still caught") false
            (Protocol.passed (Protocol.verify p)))
        (e.Registry.build ~n:2))
    Registry.broken;
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

(* --- the packed state key ---

   [Explorer.key] must induce the same equivalence on joint states as
   the oracle's structural [Value.t] key.  Every reachable node of the
   registry protocols (n = 2, 3, with and without a crash) is visited
   once per structural class by the oracle DFS; each node's successors
   re-reach states along other paths, so the sample also holds many
   physically distinct, structurally equal nodes.  One structural key
   per packed key, and as many packed keys as structural ones, says
   the two keys split the sample into the same classes. *)

let check_same_classes name config ~crashes =
  let by_packed = Hashtbl.create 1024 and structural = Value.Tbl.create 1024 in
  let note node =
    let sk = Explorer_oracle.key node in
    Value.Tbl.replace structural sk ();
    let pk = Explorer.key node in
    match Hashtbl.find_opt by_packed pk with
    | None -> Hashtbl.replace by_packed pk sk
    | Some sk' ->
        if not (Value.equal sk sk') then
          Alcotest.failf "%s: two structural states share a packed key" name
  in
  ignore
    (Explorer_oracle.explore ~crashes
       ~on_state:(fun node ->
         note node;
         List.iter (fun (_, succ) -> note succ)
           (Explorer.successors ~crashes config node))
       config);
  Alcotest.(check int)
    (name ^ ": as many packed keys as structural ones")
    (Value.Tbl.length structural) (Hashtbl.length by_packed)

let test_packed_key_classes () =
  List.iter
    (fun (name, (p : Protocol.t)) ->
      List.iter
        (fun crashes ->
          check_same_classes
            (Fmt.str "%s crashes=%d" name crashes)
            p.Protocol.config ~crashes)
        [ 0; 1 ])
    (registry_protocols ())

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

(* A joint state built around [v]: the same value in several slots. *)
let node_of v =
  {
    Explorer.locals = [| v; v |];
    decided = [| Some v; None |];
    env_state = [| v |];
    stepped = 1;
    crashed = 0;
  }

let prop_key_ignores_sharing =
  QCheck2.Test.make ~name:"packed key ignores physical sharing" ~count:300
    Test_value.value_gen (fun v ->
      let copied =
        {
          Explorer.locals = [| deep_copy v; deep_copy v |];
          decided = [| Some (deep_copy v); None |];
          env_state = [| deep_copy v |];
          stepped = 1;
          crashed = 0;
        }
      in
      String.equal (Explorer.key (node_of v)) (Explorer.key copied))

let prop_key_iff_equal =
  QCheck2.Test.make ~name:"packed keys coincide iff states are equal"
    ~count:300
    (QCheck2.Gen.pair Test_value.value_gen Test_value.value_gen)
    (fun (a, b) ->
      String.equal (Explorer.key (node_of a)) (Explorer.key (node_of b))
      = Value.equal a b)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_key_ignores_sharing;
      prop_key_iff_equal;
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
        Alcotest.test_case "on_terminal: once per terminal, any -j" `Quick
          test_on_terminal_hook;
        Alcotest.test_case "packed key = structural key classes" `Quick
          test_packed_key_classes;
      ] );
    ("engine.intern", qsuite);
  ]
