(* Differential and unit tests for the transposition/no-good layer: the
   cached search must be observationally identical to the chronological
   one.  Verdicts and synthesized strategies match across every
   {por, tt} combination while node counts only shrink;
   the footprint machinery in [Tt] is exercised directly (validation,
   overflow, taint, mask subsumption, eviction); budget exhaustion still
   flushes the node counters; and the census critical-depth binary
   search agrees with a brute-force linear scan. *)

open Wfs_spec
open Wfs_hierarchy

let verdict_sig = Test_perf_engine.verdict_sig

(* --- solver: tt = no-tt verdicts, across the por grid --- *)

(* The four {por, tt} ablations: same verdict and strategy everywhere,
   and the cached searches never explore more nodes than their uncached
   counterparts. *)
let check_grid name inst =
  let solve ~por ~tt () = Solver.solve_with_stats ~por ~tt inst in
  let v_ref, n_ref = solve ~por:false ~tt:false () in
  let sig_ref = verdict_sig v_ref in
  let check_combo combo (v, n) =
    Alcotest.(check (list string))
      (Fmt.str "%s: verdict + strategy (%s)" name combo)
      sig_ref (verdict_sig v);
    n
  in
  let n_tt = check_combo "tt" (solve ~por:false ~tt:true ()) in
  let n_por = check_combo "por" (solve ~por:true ~tt:false ()) in
  let n_both = check_combo "por+tt" (solve ~por:true ~tt:true ()) in
  Alcotest.(check bool)
    (name ^ ": tt no more nodes than chronological")
    true (n_tt <= n_ref);
  Alcotest.(check bool)
    (name ^ ": por+tt no more nodes than por alone")
    true (n_both <= n_por)

let register () =
  Registers.atomic ~name:"r" ~init:(Value.int 0) [ Value.int 0; Value.int 1 ]

let queue () =
  Queues.fifo ~name:"q"
    ~initial:[ Value.str "a"; Value.str "b" ]
    ~items:[ Value.str "a"; Value.str "b" ]
    ()

let test_solver_grid () =
  check_grid "T2 register n=2 d=2" (Solver.of_spec ~n:2 ~depth:2 (register ()));
  check_grid "T9 queue n=2 d=2" (Solver.of_spec ~n:2 ~depth:2 (queue ()));
  check_grid "T11 queue n=3 d=1" (Solver.of_spec ~n:3 ~depth:1 (queue ()));
  check_grid "TAS n=3 d=1" (Solver.of_spec ~n:3 ~depth:1 (Zoo.test_and_set ()))

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

(* --- census: tt = no-tt measurements --- *)

let test_census_measure () =
  List.iter
    (fun spec ->
      let name = spec.Object_spec.name in
      let off = Census.measure ~max_nodes:2_000_000 ~tt:false spec in
      let on = Census.measure ~max_nodes:2_000_000 spec in
      Alcotest.(check string)
        (name ^ ": interpretation")
        off.Census.interpretation on.Census.interpretation;
      Alcotest.(check bool)
        (name ^ ": n=2 outcome")
        true
        (fst off.Census.two_proc = fst on.Census.two_proc);
      Alcotest.(check bool)
        (name ^ ": n=3 outcome")
        true
        (fst off.Census.three_proc = fst on.Census.three_proc);
      Alcotest.(check bool)
        (name ^ ": winning init n=2")
        true
        (Option.equal Value.equal off.Census.winning_init2
           on.Census.winning_init2);
      Alcotest.(check bool)
        (name ^ ": winning init n=3")
        true
        (Option.equal Value.equal off.Census.winning_init3
           on.Census.winning_init3))
    [ Zoo.test_and_set (); Zoo.fetch_and_add () ]

(* --- Tt: footprint machinery, directly --- *)

(* σ models for the unit tests: an association list read through [find]. *)
let find_of assoc k = List.assoc_opt k assoc

let fp_testable =
  Alcotest.(option (array (pair int (option string))))

(* footprints are insertion-unordered: compare them sorted by key *)
let sorted =
  Option.map (fun fp ->
      let fp = Array.copy fp in
      Array.sort (fun (a, _) (b, _) -> compare a b) fp;
      fp)

let test_refutation_fp () =
  let fr : (int, string) Tt.frame = Tt.frame () in
  Tt.log_read fr 1 (Some "a");
  Tt.log_read fr 2 None;
  (* an unassigned read: dropped a fortiori *)
  Tt.log_write fr 3;
  Tt.log_read fr 3 (Some "c");
  (* own write: nets out of the refutation support *)
  Alcotest.check fp_testable "assigned external reads only"
    (Some [| (1, Some "a") |])
    (Tt.refutation_fp fr)

let test_success_fp () =
  let fr : (int, string) Tt.frame = Tt.frame () in
  Tt.log_read fr 1 (Some "a");
  Tt.log_read fr 2 None;
  Tt.log_write fr 3;
  (* writes are re-read through [find] at recording time: key 3 was
     since removed by backtracking, so it pins "required unassigned" *)
  let fp = Tt.success_fp ~find:(find_of [ (1, "a") ]) fr in
  Alcotest.check fp_testable "exact footprint, writes re-read"
    (Some [| (1, Some "a"); (2, None); (3, None) |])
    (sorted fp)

let test_taint () =
  let fr : (int, string) Tt.frame = Tt.frame () in
  Tt.log_read fr 1 (Some "a");
  Tt.taint fr;
  Alcotest.check fp_testable "tainted frame yields no refutation footprint"
    None (Tt.refutation_fp fr);
  Alcotest.(check bool)
    "taint leaves successes alone" true
    (Tt.success_fp ~find:(find_of [ (1, "a") ]) fr <> None);
  (* taint propagates through merge, exactly like overflow *)
  let parent : (int, string) Tt.frame = Tt.frame () in
  Tt.log_read parent 2 (Some "b");
  Tt.merge ~child:fr ~parent;
  Alcotest.check fp_testable "merge propagates taint" None
    (Tt.refutation_fp parent)

let test_overflow () =
  let fr : (int, string) Tt.frame = Tt.frame () in
  for k = 0 to Tt.fp_cap do
    Tt.log_read fr k (Some "v")
  done;
  Alcotest.check fp_testable "overflowed refutation" None (Tt.refutation_fp fr);
  Alcotest.check fp_testable "overflowed success" None
    (Tt.success_fp ~find:(fun _ -> Some "v") fr)

let test_fp_valid () =
  let fp = [| (1, Some "a"); (2, None) |] in
  Alcotest.(check bool)
    "agreeing σ validates" true
    (Tt.fp_valid ~find:(find_of [ (1, "a"); (9, "z") ]) fp);
  Alcotest.(check bool)
    "changed value invalidates" false
    (Tt.fp_valid ~find:(find_of [ (1, "b") ]) fp);
  Alcotest.(check bool)
    "required-unassigned now assigned invalidates" false
    (Tt.fp_valid ~find:(find_of [ (1, "a"); (2, "x") ]) fp)

let test_lookup_replay () =
  let store : (int, string) Tt.store = Tt.create () in
  Tt.record store ~pos:7
    { Tt.e_true = false; e_mask = 0; e_fp = [| (1, Some "a") |] };
  (match Tt.lookup store ~find:(find_of [ (1, "a") ]) ~pos:7 ~mask:0 with
  | Tt.Replay e -> Alcotest.(check bool) "refutation replays" false e.Tt.e_true
  | Tt.Miss _ -> Alcotest.fail "expected replay");
  (* σ moved off the footprint: the entry is rejected, and counted *)
  (match Tt.lookup store ~find:(find_of [ (1, "b") ]) ~pos:7 ~mask:0 with
  | Tt.Replay _ -> Alcotest.fail "stale entry must not replay"
  | Tt.Miss rejected ->
      Alcotest.(check int) "reject counted" 1 rejected);
  match Tt.lookup store ~find:(find_of []) ~pos:3 ~mask:0 with
  | Tt.Replay _ -> Alcotest.fail "unknown position must miss"
  | Tt.Miss rejected -> Alcotest.(check int) "clean miss" 0 rejected

let test_mask_subsumption () =
  let store : (int, string) Tt.store = Tt.create () in
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
  let store : (int, string) Tt.store = Tt.create () in
  for i = 0 to Tt.entry_cap + 2 do
    Tt.record store ~pos:1
      { Tt.e_true = false; e_mask = 0; e_fp = [| (i, Some "x") |] }
  done;
  Alcotest.(check int)
    "eviction keeps the newest entry_cap entries" Tt.entry_cap
    (Tt.entries store);
  (* the newest entry survived... *)
  (match
     Tt.lookup store
       ~find:(find_of [ (Tt.entry_cap + 2, "x") ])
       ~pos:1 ~mask:0
   with
  | Tt.Replay _ -> ()
  | Tt.Miss _ -> Alcotest.fail "newest entry must survive eviction");
  (* ...and the oldest was evicted *)
  match Tt.lookup store ~find:(find_of [ (0, "x") ]) ~pos:1 ~mask:0 with
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
    let fp = Array.of_list fp_list in
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
        Alcotest.test_case "solver: {por,tt,backend} grid verdicts" `Quick
          test_solver_grid;
        Alcotest.test_case "solver: shared ctx replays" `Quick test_shared_ctx;
        Alcotest.test_case "census: tt = no-tt measurements" `Quick
          test_census_measure;
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
