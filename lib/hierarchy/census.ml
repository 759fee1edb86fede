(* A measured census of the object zoo: for every object, ask the
   bounded-protocol solver directly — "is 2-process consensus solvable
   within d operations per process?  3-process?" — and combine the
   verdicts into a bounded estimate of the object's consensus number.

   This is Figure 1-1 *derived from the solver alone*, with no
   protocol-specific knowledge: solvable instances come with synthesized
   protocols, unsolvable ones with exhaustive-search proofs.  Bounded
   depth means a negative verdict is "no ≤ d-op protocol", not a full
   impossibility — the [interpretation] field is explicit about which
   claims are bounded.

   An implementation is free to INITIALIZE its objects: the paper's
   queue protocol pre-loads two items.  The census therefore quantifies
   over initial states reachable within two menu operations — an empty
   queue admits no 2-op 2-process protocol, but the state [a; b] does,
   and it is the census that discovers the pre-loading trick. *)

open Wfs_spec

type outcome = Solvable | Unsolvable | Budget

let outcome_of = function
  | Solver.Solvable _ -> Solvable
  | Solver.Unsolvable -> Unsolvable
  | Solver.Out_of_budget _ -> Budget

type measurement = {
  object_name : string;
  menu_size : int;
  inits_tried : int;  (** candidate initial states examined *)
  two_proc : outcome * int;  (** verdict and total nodes at n = 2 *)
  three_proc : outcome * int;  (** verdict and total nodes at n = 3 *)
  winning_init2 : Value.t option;  (** an initialization that solves n = 2 *)
  winning_init3 : Value.t option;
  depth2 : int;
  depth3 : int;
  interpretation : string;
}

let interpret ~depth2 ~depth3 two three =
  match (two, three) with
  | Unsolvable, Unsolvable ->
      Fmt.str "consensus number 1 (no ≤%d-op protocol even for 2)" depth2
  | Solvable, Unsolvable ->
      Fmt.str "consensus number ≥2; no ≤%d-op protocol for 3" depth3
  | Solvable, Solvable -> "consensus number ≥3"
  | Unsolvable, Solvable -> "inconsistent (impossible)"
  | Budget, _ | _, Budget -> "inconclusive (search budget)"

(* Initial states reachable within two menu operations, the object's own
   initial state first. *)
let candidate_inits ?(max_candidates = 16) (spec : Object_spec.t) =
  let seen = Hashtbl.create 32 in
  Hashtbl.replace seen spec.Object_spec.init ();
  let frontier = ref [ spec.Object_spec.init ] in
  let acc = ref [ spec.Object_spec.init ] in
  for _ = 1 to 2 do
    let next = ref [] in
    List.iter
      (fun state ->
        List.iter
          (fun op ->
            match Object_spec.apply spec state op with
            | state', _ ->
                if not (Hashtbl.mem seen state') then begin
                  Hashtbl.replace seen state' ();
                  next := state' :: !next;
                  acc := state' :: !acc
                end
            | exception Object_spec.Unknown_operation _ -> ())
          spec.Object_spec.menu)
      !frontier;
    frontier := !next
  done;
  let all = List.rev !acc in
  List.filteri (fun i _ -> i < max_candidates) all

(* Solve for one process count, trying each candidate initialization
   until one admits a protocol.  All initializations of a row share one
   solver context: the initial environment state differs per candidate, but deeper subgames
   transpose heavily across them, so later candidates replay verdicts
   the earlier ones paid for. *)
let solve_any_init ?ctx ~n ~depth ~max_nodes (spec : Object_spec.t) inits =
  Wfs_obs.Profile.span ~cat:"census"
    ~args:(fun () ->
      [
        ("object", Wfs_obs.Json.str spec.Object_spec.name);
        ("n", Wfs_obs.Json.int n);
      ])
    "census.solve"
  @@ fun () ->
  let ctx =
    match ctx with Some c -> c | None -> Solver.Ctx.create ~n ()
  in
  let rec go total_nodes budget_hit winning = function
    | [] ->
        if budget_hit then ((Budget, total_nodes), winning)
        else ((Unsolvable, total_nodes), winning)
    | init :: rest -> (
        let spec' = { spec with Object_spec.init } in
        let verdict, nodes =
          Solver.solve_with_stats ~max_nodes ~ctx
            (Solver.of_spec ~n ~depth spec')
        in
        let total_nodes = total_nodes + nodes in
        match outcome_of verdict with
        | Solvable -> ((Solvable, total_nodes), Some init)
        | Unsolvable -> go total_nodes budget_hit winning rest
        | Budget -> go total_nodes true winning rest)
  in
  go 0 false None inits

let assemble ~depth2 ~depth3 (spec : Object_spec.t) inits
    (two_proc, winning_init2) (three_proc, winning_init3) =
  {
    object_name = spec.Object_spec.name;
    menu_size = List.length spec.Object_spec.menu;
    inits_tried = List.length inits;
    two_proc;
    three_proc;
    winning_init2;
    winning_init3;
    depth2;
    depth3;
    interpretation = interpret ~depth2 ~depth3 (fst two_proc) (fst three_proc);
  }

let measure ?(depth2 = 2) ?(depth3 = 1) ?(max_nodes = 20_000_000)
    ?(max_candidates = 16) (spec : Object_spec.t) =
  let inits = candidate_inits ~max_candidates spec in
  let two = solve_any_init ~n:2 ~depth:depth2 ~max_nodes spec inits in
  let three = solve_any_init ~n:3 ~depth:depth3 ~max_nodes spec inits in
  assemble ~depth2 ~depth3 spec inits two three

(* The census over the whole zoo.  Objects whose 2-process protocols
   need more than [depth2] operations even from the best initialization
   (e.g. memory-to-memory swap's swap-then-scan) report a bounded
   negative; the protocol-verified table covers those — the census is
   the solver-only view.

   The (object, n) solver instances — two per zoo entry — are
   independent jobs; every instance allocates its own solver tables, so
   jobs share nothing.  With [pool] they are issued heaviest-first
   (instance cost grows steeply with the process count and the
   branching factor, menu × candidate initializations) and reassembled
   in zoo order, so the census output is byte-identical to the
   sequential one. *)

(* A cheap static cost proxy for scheduling only: the game tree
   branches on roughly (menu + decide) moves per ply over n·depth
   plies, once per candidate initialization. *)
let job_weight (spec, inits, n, depth) =
  let branch = float_of_int (List.length spec.Object_spec.menu + 1) in
  float_of_int (List.length inits) *. (branch ** float_of_int (n * depth))

let run ?(depth2 = 2) ?(depth3 = 1) ?(max_nodes = 20_000_000) ?pool () =
  let specs = Zoo.all () in
  let jobs =
    Array.of_list
      (List.concat_map
         (fun spec ->
           let inits = candidate_inits spec in
           [ (spec, inits, 2, depth2); (spec, inits, 3, depth3) ])
         specs)
  in
  let halves =
    Wfs_sim.Pool.map_heaviest_first pool ~weight:job_weight
      (fun (spec, inits, n, depth) ->
        (* each job builds its own context inside [solve_any_init]:
           the transposition store is single-domain state *)
        solve_any_init ~n ~depth ~max_nodes spec inits)
      jobs
  in
  List.mapi
    (fun i spec ->
      let _, inits, _, _ = jobs.(2 * i) in
      assemble ~depth2 ~depth3 spec inits halves.(2 * i) halves.((2 * i) + 1))
    specs

(* Critical depth of an (object, n) row: the least step bound d at
   which n-process consensus is solvable from some candidate
   initialization.  Solvability is MONOTONE in the bound — a protocol
   deciding within d operations per process decides within d' ≥ d — so
   the row is a step function of d and binary search over [1,
   max_depth] finds the threshold in ⌈log₂ max_depth⌉ probes instead
   of max_depth.  All probes share one solver context: positions are
   keyed by REMAINING step budget, so a subgame classified at one
   probe depth replays verbatim at every other. *)

type depth_probe = { probe_depth : int; probe_outcome : outcome; probe_nodes : int }

type critical = {
  critical : int option;
      (* least solvable depth ≤ max_depth, None if the row is
         unsolvable (or inconclusive) throughout *)
  exact : bool;  (* false if a budget-exhausted probe widened the bracket *)
  probes : depth_probe list;  (* in probe order *)
  total_nodes : int;
}

let critical_depth ?(max_nodes = 20_000_000) ?(max_candidates = 16) ~n
    ~max_depth (spec : Object_spec.t) =
  if max_depth < 1 then invalid_arg "Census.critical_depth: max_depth < 1";
  let inits = candidate_inits ~max_candidates spec in
  let ctx = Solver.Ctx.create ~n () in
  let probes = ref [] in
  let total = ref 0 in
  let exact = ref true in
  let probe depth =
    let (outcome, nodes), _ =
      solve_any_init ~ctx ~n ~depth ~max_nodes spec inits
    in
    probes := { probe_depth = depth; probe_outcome = outcome; probe_nodes = nodes } :: !probes;
    total := !total + nodes;
    outcome
  in
  let result =
    match probe max_depth with
    | Unsolvable -> None  (* monotone: unsolvable at the cap ⇒ everywhere *)
    | Budget ->
        exact := false;
        None
    | Solvable ->
        (* invariant: solvable at [hi], unsolvable below [lo] *)
        let lo = ref 1 and hi = ref max_depth in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          match probe mid with
          | Solvable -> hi := mid
          | Unsolvable -> lo := mid + 1
          | Budget ->
              (* treat as unsolvable to keep the bracket sound from
                 above; the reported threshold is then only an upper
                 bound *)
              exact := false;
              lo := mid + 1
        done;
        Some !hi
  in
  {
    critical = result;
    exact = !exact;
    probes = List.rev !probes;
    total_nodes = !total;
  }

let pp_outcome ppf = function
  | Solvable -> Fmt.string ppf "solvable"
  | Unsolvable -> Fmt.string ppf "UNSOLVABLE"
  | Budget -> Fmt.string ppf "budget"

let outcome_label = function
  | Solvable -> "solvable"
  | Unsolvable -> "UNSOLVABLE"
  | Budget -> "budget"

let pp_measurement ppf m =
  Fmt.pf ppf
    "%-22s %2d inits   n=2,d=%d: %-10s (%9d nodes)   n=3,d=%d: %-10s (%9d \
     nodes)   %s"
    m.object_name m.inits_tried m.depth2
    (outcome_label (fst m.two_proc))
    (snd m.two_proc) m.depth3
    (outcome_label (fst m.three_proc))
    (snd m.three_proc) m.interpretation

let pp ppf census =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_measurement) census

let pp_probe ppf p =
  Fmt.pf ppf "d=%d: %s (%d nodes)" p.probe_depth
    (outcome_label p.probe_outcome)
    p.probe_nodes

let pp_critical ppf c =
  Fmt.pf ppf "@[<v 2>critical depth: %a%s  (%d nodes total)@ %a@]"
    Fmt.(option ~none:(any "none") int)
    c.critical
    (if c.exact then "" else " (upper bound: budget hit)")
    c.total_nodes
    Fmt.(list ~sep:cut pp_probe)
    c.probes
