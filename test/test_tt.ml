(* Differential and unit tests for the transposition/no-good layer: the
   engine must be observationally identical to the chronological
   reference in [Solver_oracle].  Verdicts and synthesized strategies
   match while node counts only shrink, per instance and per census row;
   the footprint machinery in [Tt] is exercised directly (validation,
   overflow, taint, mask subsumption, eviction); budget exhaustion still
   flushes the node counters; and the census critical-depth binary
   search agrees with a brute-force linear scan. *)

open Wfs_spec
open Wfs_hierarchy

let verdict_sig = Test_perf_engine.verdict_sig

(* --- solver: engine = reference oracle --- *)

(* Same verdict and strategy as the chronological search in
   [Solver_oracle], never more nodes. *)
let check_oracle name inst =
  let v_ref, n_ref = Solver_oracle.solve inst in
  let v, n = Solver.solve_with_stats inst in
  Alcotest.(check (list string))
    (name ^ ": verdict + strategy")
    (verdict_sig v_ref) (verdict_sig v);
  Alcotest.(check bool)
    (Fmt.str "%s: engine nodes %d <= oracle nodes %d" name n n_ref)
    true (n <= n_ref)

let register () =
  Registers.atomic ~name:"r" ~init:(Value.int 0) [ Value.int 0; Value.int 1 ]

let queue () =
  Queues.fifo ~name:"q"
    ~initial:[ Value.str "a"; Value.str "b" ]
    ~items:[ Value.str "a"; Value.str "b" ]
    ()

let test_solver_oracle () =
  check_oracle "T2 register n=2 d=2"
    (Solver.of_spec ~n:2 ~depth:2 (register ()));
  check_oracle "T9 queue n=2 d=2" (Solver.of_spec ~n:2 ~depth:2 (queue ()));
  check_oracle "T11 queue n=3 d=1" (Solver.of_spec ~n:3 ~depth:1 (queue ()));
  check_oracle "TAS n=3 d=1"
    (Solver.of_spec ~n:3 ~depth:1 (Zoo.test_and_set ()))

(* A shared context carries verdicts across solves: the second identical
   solve replays from the store and must agree with the first. *)
let test_shared_ctx () =
  let inst = Solver.of_spec ~n:2 ~depth:2 (register ()) in
  let ctx = Solver.Ctx.create ~n:2 () in
  let v1, n1 = Solver.solve_with_stats ~ctx inst in
  Alcotest.(check bool) "first solve populates the store" true
    (Solver.Ctx.tt_entries ctx > 0);
  let v2, n2 = Solver.solve_with_stats ~ctx inst in
  Alcotest.(check (list string))
    "shared ctx: same verdict" (verdict_sig v1) (verdict_sig v2);
  Alcotest.(check bool)
    "shared ctx: replay shrinks the second solve" true (n2 < n1)

(* --- census: engine rows = oracle rows --- *)

let census_budget = 20_000

(* A context is bound to the object of its first solve.  Without the
   binding, a test-and-set context reused for swap-register replays
   test-and-set's entries into swap-register's search: from initial
   state 1 at n=2, d=1 it reads UNSOLVABLE, where a fresh context finds
   a protocol. *)
let test_ctx_binding () =
  let tas = Zoo.test_and_set () and swap = Zoo.swap_register () in
  let inst spec init =
    Solver.of_spec ~n:2 ~depth:1 { spec with Object_spec.init }
  in
  let ctx = Solver.Ctx.create ~n:2 () in
  (* every initialization of one object may share the context *)
  List.iter
    (fun init -> ignore (Solver.solve ~ctx (inst tas init)))
    (Census.candidate_inits tas);
  let swap1 = inst swap (Value.pid 1) in
  Alcotest.(check bool)
    "another object on a bound ctx is rejected" true
    (match Solver.solve ~ctx swap1 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool)
    "a fresh ctx solves swap-register from 1" true
    (match Solver.solve swap1 with Solver.Solvable _ -> true | _ -> false);
  (* a different menu for the same object name is another object too *)
  let narrowed =
    Solver.of_spec ~n:2 ~depth:1 { tas with Object_spec.menu = [] }
  in
  Alcotest.(check bool)
    "same name, other menu is rejected" true
    (match Solver.solve ~ctx narrowed with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The census shares one context across a row's initializations: every
   initialization it solves must read exactly as it does from a fresh
   context.  Pairs where either side hits the budget are no verdicts
   and are skipped; the count compared is pinned. *)
let test_census_shared_ctx () =
  let compared = ref 0 in
  List.iter
    (fun spec ->
      let m = Census.measure ~max_nodes:census_budget spec in
      let inits = Census.candidate_inits spec in
      let check n depth (outcome, _) winning =
        let ctx = Solver.Ctx.create ~n () in
        (* the census's walk: initializations in order, up to the first
           solvable one *)
        let rec go capped = function
          | [] -> ((if capped then Census.Budget else Census.Unsolvable), None)
          | init :: rest -> (
              let inst =
                Solver.of_spec ~n ~depth { spec with Object_spec.init }
              in
              let shared = Solver.solve ~max_nodes:census_budget ~ctx inst in
              let fresh = Solver.solve ~max_nodes:census_budget inst in
              (match (shared, fresh) with
              | Solver.Out_of_budget _, _ | _, Solver.Out_of_budget _ -> ()
              | _ ->
                  incr compared;
                  Alcotest.(check (list string))
                    (Fmt.str "%s n=%d init %a: shared = fresh"
                       spec.Object_spec.name n Value.pp init)
                    (verdict_sig fresh) (verdict_sig shared));
              match shared with
              | Solver.Solvable _ -> (Census.Solvable, Some init)
              | Solver.Unsolvable -> go capped rest
              | Solver.Out_of_budget _ -> go true rest)
        in
        let outcome', winning' = go false inits in
        let name = Fmt.str "%s n=%d" spec.Object_spec.name n in
        Alcotest.(check string)
          (name ^ ": measure outcome")
          (Fmt.str "%a" Census.pp_outcome outcome')
          (Fmt.str "%a" Census.pp_outcome outcome);
        Alcotest.(check bool)
          (name ^ ": measure winning init") true
          (Option.equal Value.equal winning' winning)
      in
      check 2 m.Census.depth2 m.Census.two_proc m.Census.winning_init2;
      check 3 m.Census.depth3 m.Census.three_proc m.Census.winning_init3)
    (Zoo.all ());
  Alcotest.(check int) "initializations compared" 172 !compared

(* Every zoo row at one budget per solver run: outcome and winning
   initialization from [Census.measure] against the oracle's row over
   the same candidate initializations.  A row in which either side hit
   the budget is a budget-boundary artifact, not a verdict, and is
   skipped (the oracle may be capped on an initialization the engine
   solves, and then name a later winner); the count of rows actually
   compared is pinned so the test cannot go vacuous. *)
let test_census_oracle () =
  let compared = ref 0 in
  List.iter
    (fun spec ->
      let m = Census.measure ~max_nodes:census_budget spec in
      let check n depth (engine, _) winning =
        let oracle, _, oracle_init, capped =
          Solver_oracle.row ~max_nodes:census_budget ~n ~depth spec
        in
        if engine <> Census.Budget && not capped then begin
          incr compared;
          let name = Fmt.str "%s n=%d" spec.Object_spec.name n in
          Alcotest.(check string)
            (name ^ ": outcome")
            (Fmt.str "%a" Census.pp_outcome oracle)
            (Fmt.str "%a" Census.pp_outcome engine);
          Alcotest.(check bool)
            (name ^ ": winning init") true
            (Option.equal Value.equal oracle_init winning)
        end
      in
      check 2 m.Census.depth2 m.Census.two_proc m.Census.winning_init2;
      check 3 m.Census.depth3 m.Census.three_proc m.Census.winning_init3)
    (Zoo.all ());
  Alcotest.(check int) "rows compared" 21 !compared

(* --- Tt: footprint machinery, directly --- *)

(* σ models for the unit tests: an association list of σ-key to action
   code, read through [find] ([Tt.unassigned] off the list). *)
let find_of assoc k =
  Option.value ~default:Tt.unassigned (List.assoc_opt k assoc)

let u = Tt.unassigned

(* footprints as (key, value) pairs, sorted by key: the flat array is
   insertion-ordered *)
let pairs =
  Option.map (fun fp ->
      List.sort compare
        (List.init (Array.length fp / 2) (fun i ->
             (fp.(2 * i), fp.((2 * i) + 1)))))

let fp_testable = Alcotest.(option (list (pair int int)))

let test_refutation_fp () =
  let fr = Tt.frame () in
  Tt.log_read fr 1 10;
  Tt.log_read fr 2 u;
  (* an unassigned read: dropped a fortiori *)
  Tt.log_write fr 3;
  Tt.log_read fr 3 30;
  (* own write: nets out of the refutation support *)
  Alcotest.check fp_testable "assigned external reads only"
    (Some [ (1, 10) ])
    (pairs (Tt.refutation_fp fr))

let test_success_fp () =
  let fr = Tt.frame () in
  Tt.log_read fr 1 10;
  Tt.log_read fr 2 u;
  Tt.log_write fr 3;
  (* writes are re-read through [find] at recording time: key 3 was
     since removed by backtracking, so it pins "required unassigned" *)
  let fp = Tt.success_fp ~find:(find_of [ (1, 10) ]) fr in
  Alcotest.check fp_testable "exact footprint, writes re-read"
    (Some [ (1, 10); (2, u); (3, u) ])
    (pairs fp)

let test_taint () =
  let fr = Tt.frame () in
  Tt.log_read fr 1 10;
  Tt.taint fr;
  Alcotest.check fp_testable "tainted frame yields no refutation footprint"
    None (pairs (Tt.refutation_fp fr));
  Alcotest.(check bool)
    "taint leaves successes alone" true
    (Tt.success_fp ~find:(find_of [ (1, 10) ]) fr <> None);
  (* taint propagates through merge, exactly like overflow *)
  let parent = Tt.frame () in
  Tt.log_read parent 2 20;
  Tt.merge ~child:fr ~parent;
  Alcotest.check fp_testable "merge propagates taint" None
    (pairs (Tt.refutation_fp parent))

let test_overflow () =
  let fr = Tt.frame () in
  for k = 0 to Tt.fp_cap do
    Tt.log_read fr k 7
  done;
  Alcotest.check fp_testable "overflowed refutation" None
    (pairs (Tt.refutation_fp fr));
  Alcotest.check fp_testable "overflowed success" None
    (pairs (Tt.success_fp ~find:(fun _ -> 7) fr))

let test_fp_valid () =
  let fp = [| 1; 10; 2; u |] in
  Alcotest.(check bool)
    "agreeing σ validates" true
    (Tt.fp_valid ~find:(find_of [ (1, 10); (9, 90) ]) fp);
  Alcotest.(check bool)
    "changed value invalidates" false
    (Tt.fp_valid ~find:(find_of [ (1, 11) ]) fp);
  Alcotest.(check bool)
    "required-unassigned now assigned invalidates" false
    (Tt.fp_valid ~find:(find_of [ (1, 10); (2, 20) ]) fp)

let test_lookup_replay () =
  let store = Tt.create () in
  Tt.record store ~pos:7 { Tt.e_true = false; e_mask = 0; e_fp = [| 1; 10 |] };
  (match Tt.lookup store ~find:(find_of [ (1, 10) ]) ~pos:7 ~mask:0 with
  | Tt.Replay e -> Alcotest.(check bool) "refutation replays" false e.Tt.e_true
  | Tt.Miss _ -> Alcotest.fail "expected replay");
  (* σ moved off the footprint: the entry is rejected, and counted *)
  (match Tt.lookup store ~find:(find_of [ (1, 11) ]) ~pos:7 ~mask:0 with
  | Tt.Replay _ -> Alcotest.fail "stale entry must not replay"
  | Tt.Miss rejected ->
      Alcotest.(check int) "reject counted" 1 rejected);
  (match Tt.lookup store ~find:(find_of []) ~pos:3 ~mask:0 with
  | Tt.Replay _ -> Alcotest.fail "unknown position must miss"
  | Tt.Miss rejected -> Alcotest.(check int) "clean miss" 0 rejected);
  (* a position past every recorded one: the store grows on demand *)
  match Tt.lookup store ~find:(find_of []) ~pos:100_000 ~mask:0 with
  | Tt.Replay _ -> Alcotest.fail "unseen position must miss"
  | Tt.Miss rejected -> Alcotest.(check int) "miss past the end" 0 rejected

let test_mask_subsumption () =
  let store = Tt.create () in
  (* a success proved with processes {0} asleep (mask 0b01) *)
  Tt.record store ~pos:1 { Tt.e_true = true; e_mask = 0b01; e_fp = [||] };
  let lookup mask = Tt.lookup store ~find:(find_of []) ~pos:1 ~mask in
  (match lookup 0b11 with
  | Tt.Replay e -> Alcotest.(check bool) "larger mask subsumes" true e.Tt.e_true
  | Tt.Miss _ -> Alcotest.fail "superset sleep mask must replay");
  (match lookup 0b00 with
  | Tt.Replay _ ->
      Alcotest.fail "smaller sleep mask proves less: must not replay"
  | Tt.Miss rejected -> Alcotest.(check int) "mask reject counted" 1 rejected);
  (* refutations ignore the mask entirely *)
  Tt.record store ~pos:2 { Tt.e_true = false; e_mask = 0b01; e_fp = [||] };
  match Tt.lookup store ~find:(find_of []) ~pos:2 ~mask:0b00 with
  | Tt.Replay e ->
      Alcotest.(check bool) "refutation replay is mask-free" false e.Tt.e_true
  | Tt.Miss _ -> Alcotest.fail "refutation must replay under any mask"

let test_entry_cap () =
  let store = Tt.create () in
  for i = 0 to Tt.entry_cap + 2 do
    Tt.record store ~pos:1 { Tt.e_true = false; e_mask = 0; e_fp = [| i; 5 |] }
  done;
  Alcotest.(check int)
    "eviction keeps the newest entry_cap entries" Tt.entry_cap
    (Tt.entries store);
  (* the newest entry survived... *)
  (match
     Tt.lookup store ~find:(find_of [ (Tt.entry_cap + 2, 5) ]) ~pos:1 ~mask:0
   with
  | Tt.Replay _ -> ()
  | Tt.Miss _ -> Alcotest.fail "newest entry must survive eviction");
  (* ...and the oldest was evicted *)
  match Tt.lookup store ~find:(find_of [ (0, 5) ]) ~pos:1 ~mask:0 with
  | Tt.Replay _ -> Alcotest.fail "oldest entry must be evicted"
  | Tt.Miss _ -> ()

(* Footprint soundness as a property: a footprint validates against
   exactly the σs that agree with it pointwise — perturbing any single
   key's value flips [fp_valid], and keys off the footprint never
   matter. *)
let test_fp_soundness_prop () =
  let gen =
    QCheck.make ~print:(fun (fp, extra) ->
      Fmt.str "fp=%a extra=%d"
        Fmt.(Dump.list (Dump.pair int (Dump.option int)))
        fp extra)
      QCheck.Gen.(
        pair
          (list_size (int_range 1 8)
             (pair (int_range 0 7) (opt (int_range 0 3))))
          (int_range 100 200))
  in
  let prop (fp_list, extra) =
    (* dedup keys: a footprint binds each key once *)
    let fp_list =
      List.fold_left
        (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
        [] fp_list
    in
    let fp =
      Array.concat
        (List.map
           (fun (k, v) -> [| k; Option.value ~default:u v |])
           fp_list)
    in
    let sigma = List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v)
        fp_list
    in
    let agreeing = Tt.fp_valid ~find:(find_of sigma) fp in
    (* an unrelated extra binding never matters *)
    let padded = Tt.fp_valid ~find:(find_of ((extra, 42) :: sigma)) fp in
    (* perturbing each footprint key in turn always invalidates *)
    let perturbed =
      List.for_all
        (fun (k, v) ->
          let sigma' =
            match v with
            | Some x -> (k, x + 1) :: List.remove_assoc k sigma
            | None -> (k, 0) :: sigma
          in
          not (Tt.fp_valid ~find:(find_of sigma') fp))
        fp_list
    in
    agreeing && padded && perturbed
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"fp_valid is pointwise agreement" gen
       prop)

(* --- budget exhaustion still flushes the metrics (Fun.protect) --- *)

let counter name =
  Option.value ~default:0 (Wfs_obs.Metrics.counter_value name)

let test_budget_flush () =
  let inst = Solver.of_spec ~n:3 ~depth:2 (queue ()) in
  let before = counter "solver.nodes" in
  let runs_before = counter "solver.runs" in
  match Solver.solve_with_stats ~max_nodes:500 inst with
  | Solver.Out_of_budget { nodes }, reported ->
      Alcotest.(check int) "verdict and stats agree" nodes reported;
      Alcotest.(check int)
        "solver.nodes flushed on the budget path" nodes
        (counter "solver.nodes" - before);
      Alcotest.(check int)
        "solver.runs flushed on the budget path" 1
        (counter "solver.runs" - runs_before)
  | v, _ ->
      Alcotest.failf "expected Out_of_budget, got %a" Solver.pp_verdict v

(* --- census: binary-search critical depth = brute-force scan --- *)

let brute_force_critical ~n ~max_depth spec =
  let inits = Census.candidate_inits spec in
  let solvable depth =
    List.exists
      (fun init ->
        match
          Solver.solve (Solver.of_spec ~n ~depth { spec with Object_spec.init })
        with
        | Solver.Solvable _ -> true
        | Solver.Unsolvable -> false
        | Solver.Out_of_budget _ -> Alcotest.fail "brute force hit the budget")
      inits
  in
  let rec scan d =
    if d > max_depth then None else if solvable d then Some d else scan (d + 1)
  in
  scan 1

let test_critical_depth () =
  List.iter
    (fun (name, spec, n, max_depth) ->
      let c = Census.critical_depth ~n ~max_depth spec in
      Alcotest.(check bool) (name ^ ": exact") true c.Census.exact;
      Alcotest.(check (option int))
        (name ^ ": binary search = linear scan")
        (brute_force_critical ~n ~max_depth spec)
        c.Census.critical;
      (* monotonicity of the probes themselves: no probe above a
         solvable depth may come out unsolvable *)
      let solvable_depths =
        List.filter_map
          (fun (p : Census.depth_probe) ->
            if p.Census.probe_outcome = Census.Solvable then
              Some p.Census.probe_depth
            else None)
          c.Census.probes
      in
      match solvable_depths with
      | [] -> ()
      | ds ->
          let least = List.fold_left min max_int ds in
          List.iter
            (fun (p : Census.depth_probe) ->
              if p.Census.probe_depth >= least then
                Alcotest.(check bool)
                  (Fmt.str "%s: probe d=%d monotone" name p.Census.probe_depth)
                  true
                  (p.Census.probe_outcome = Census.Solvable))
            c.Census.probes)
    [
      ("test-and-set n=2", Zoo.test_and_set (), 2, 3);
      ("register n=2", register (), 2, 2);
      ("queue n=3", queue (), 3, 1);
    ]

let suite =
  [
    ( "engine.tt",
      [
        Alcotest.test_case "solver: oracle = engine" `Quick test_solver_oracle;
        Alcotest.test_case "solver: shared ctx replays" `Quick test_shared_ctx;
        Alcotest.test_case "solver: ctx is bound to one object" `Quick
          test_ctx_binding;
        Alcotest.test_case "census: oracle = engine rows" `Quick
          test_census_oracle;
        Alcotest.test_case "census: shared ctx = fresh ctx per init" `Quick
          test_census_shared_ctx;
        Alcotest.test_case "tt: refutation footprint" `Quick test_refutation_fp;
        Alcotest.test_case "tt: success footprint" `Quick test_success_fp;
        Alcotest.test_case "tt: taint blocks refutations" `Quick test_taint;
        Alcotest.test_case "tt: overflow blocks both" `Quick test_overflow;
        Alcotest.test_case "tt: footprint validation" `Quick test_fp_valid;
        Alcotest.test_case "tt: lookup replay and rejects" `Quick
          test_lookup_replay;
        Alcotest.test_case "tt: sleep-mask subsumption" `Quick
          test_mask_subsumption;
        Alcotest.test_case "tt: entry eviction" `Quick test_entry_cap;
        Alcotest.test_case "tt: footprint soundness (qcheck)" `Quick
          test_fp_soundness_prop;
        Alcotest.test_case "budget exhaustion flushes counters" `Quick
          test_budget_flush;
        Alcotest.test_case "census: critical depth = linear scan" `Quick
          test_critical_depth;
      ] );
  ]
