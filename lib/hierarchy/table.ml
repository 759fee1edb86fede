(* Regenerating Figure 1-1: the impossibility and universality hierarchy.

   Every row of the paper's table is backed by machine-checked evidence:

   - positive levels: the corresponding consensus protocol verified over
     all schedules by the exhaustive explorer ([Wfs_consensus]);
   - negative levels: the interference classification of Theorem 6
     and/or an [Unsolvable] verdict from the bounded-protocol solver —
     a finite proof that no protocol with the given step bound exists. *)

open Wfs_spec
open Wfs_consensus

type solver_outcome = [ `Solvable | `Unsolvable | `Budget ]

type evidence =
  | Protocol_verified of { n : int; states : int; protocol : string }
  | Protocol_failed of { n : int; protocol : string }
  | Classified of Interference.verdict
  | Solver_verdict of { n : int; depth : int; outcome : solver_outcome }

type row = {
  object_family : string;
  paper_level : string;  (* what Figure 1-1 claims *)
  evidence : evidence list;
}

type t = row list

(* --- evidence builders --- *)

let verify_protocol ?(max_states = 2_000_000) ?pool (p : Protocol.t) =
  let report = Protocol.verify ~max_states ?pool p in
  if Protocol.passed report then
    Protocol_verified
      { n = p.Protocol.processes; states = report.Protocol.states;
        protocol = p.Protocol.name }
  else Protocol_failed { n = p.Protocol.processes; protocol = p.Protocol.name }

let run_solver ?(max_nodes = 20_000_000) ~n ~depth spec =
  let outcome =
    match Solver.solve ~max_nodes (Solver.of_spec ~n ~depth spec) with
    | Solver.Solvable _ -> `Solvable
    | Solver.Unsolvable -> `Unsolvable
    | Solver.Out_of_budget _ -> `Budget
  in
  Solver_verdict { n; depth; outcome }

let binary_register () =
  Registers.atomic ~name:"r" ~init:(Value.int 0) [ Value.int 0; Value.int 1 ]

let two_item_queue () =
  Queues.fifo ~name:"q"
    ~initial:[ Value.str "first"; Value.str "second" ]
    ~items:[ Value.str "first"; Value.str "second" ]
    ()

(* --- the table --- *)

let int_domain = [ Value.int 0; Value.int 1; Value.int 2 ]

let classify_registers () =
  Interference.classify ~family:"read/write" ~domain:int_domain
    [ Registers.read_op; Registers.write_ops int_domain ]

let classify_classical () =
  Interference.classify ~family:"classical RMW" ~domain:int_domain
    [
      Registers.read_op;
      Registers.write_ops int_domain;
      Registers.test_and_set_op;
      Registers.swap_op int_domain;
      Registers.fetch_and_add_op [ 1 ];
    ]

let classify_cas () =
  Interference.classify ~family:"compare-and-swap" ~domain:int_domain
    [ Registers.read_op; Registers.compare_and_swap_op int_domain ]

(* [generate ()] builds the table.  [full] additionally runs the more
   expensive solver instances (minutes rather than seconds).

   Each row is planned as a list of evidence thunks — one per protocol
   verification, classification or solver run.  They flatten into one
   registry-wide job array (each verification is an independent job
   with its own explorer/solver state); with [pool] the jobs are issued
   heaviest-first by a static cost rank so the big verifications never
   straggle behind a drained batch, and the rows are reassembled in
   plan order — the table is byte-identical either way. *)
let plan ~full :
    (string * string * (int * (unit -> evidence list)) list) list =
  (* One thunk per (protocol, n) of a registry key, skipping sizes the
     registry cannot build.  The weight is a scheduling rank only —
     verification cost climbs steeply with n. *)
  let reg key ns =
    List.map
      (fun n ->
        ( 1 lsl (3 * n),
          fun () ->
            let entry = Registry.find key in
            match entry.Registry.build ~n with
            | Some p -> [ verify_protocol p ]
            | None -> [] ))
      ns
  in
  let one ?(w = 1) th = (w, fun () -> [ th () ]) in
  let when_full thunks = if full then thunks else [] in
  [
    ( "atomic read/write registers",
      "1",
      [
        one (fun () -> Classified (classify_registers ()));
        one ~w:4 (fun () -> run_solver ~n:2 ~depth:2 (binary_register ()));
        one ~w:64 (fun () ->
            run_solver ~n:3 ~depth:1 (Registers.test_and_set ()));
      ]
      @ when_full
          [
            one ~w:512 (fun () ->
                run_solver ~n:2 ~depth:3 (binary_register ()));
            one ~w:50_000 (fun () ->
                run_solver ~n:3 ~depth:2 (Registers.test_and_set ()));
            one ~w:100_000 (fun () ->
                run_solver ~max_nodes:60_000_000 ~n:3 ~depth:2
                  (two_item_queue ()));
          ] );
    ( "test-and-set",
      "2",
      reg "test-and-set" [ 2 ]
      @ [
          one (fun () ->
              Classified
                (Interference.classify ~family:"test-and-set"
                   ~domain:int_domain
                   [ Registers.read_op; Registers.test_and_set_op ]));
          one ~w:64 (fun () ->
              run_solver ~n:3 ~depth:1 (Registers.test_and_set ()));
        ] );
    ( "swap (read-modify-write)",
      "2",
      reg "rmw-swap" [ 2 ]
      @ [
          one (fun () ->
              Classified
                (Interference.classify ~family:"swap" ~domain:int_domain
                   [ Registers.read_op; Registers.swap_op int_domain ]));
        ] );
    ( "fetch-and-add",
      "2",
      reg "fetch-and-add" [ 2 ]
      @ [ one (fun () -> Classified (classify_classical ())) ] );
    ( "FIFO queue",
      "2",
      reg "queue" [ 2 ]
      @ [ one ~w:128 (fun () -> run_solver ~n:3 ~depth:1 (two_item_queue ())) ]
      @ when_full
          [
            one ~w:100_000 (fun () ->
                run_solver ~max_nodes:60_000_000 ~n:3 ~depth:2
                  (two_item_queue ()));
          ] );
    ("stack", "2", reg "stack" [ 2 ]);
    ("priority queue", "2", reg "priority-queue" [ 2 ]);
    ("set", "2", reg "set" [ 2 ]);
    ( "FIFO message channels",
      "1 (point-to-point, DDS)",
      [
        one ~w:16 (fun () ->
            run_solver ~n:2 ~depth:2
              (Channels.fifo_point_to_point ~name:"ch" ~processes:2
                 ~messages:[ Value.pid 0; Value.pid 1 ]
                 ()));
      ] );
    ( "n-register assignment",
      "2n-2",
      reg "n-assignment" [ 2 ]
      @ reg "n-assignment-2n-2" [ 2 ]
      @ when_full (reg "n-assignment" [ 3 ]) );
    ("memory-to-memory move", "unbounded", reg "move" [ 2; 3 ]);
    ("memory-to-memory swap", "unbounded", reg "memory-swap" [ 2; 3 ]);
    ("augmented queue (peek)", "unbounded", reg "augmented-queue" [ 2; 3; 4 ]);
    ( "compare-and-swap",
      "unbounded",
      reg "cas" [ 2; 3; 4 ] @ [ one (fun () -> Classified (classify_cas ())) ]
    );
    ("fetch-and-cons", "unbounded", reg "fetch-and-cons" [ 2; 3 ]);
    ( "broadcast with ordered delivery",
      "unbounded (DDS)",
      reg "ordered-broadcast" [ 2; 3 ] );
  ]

let generate ?pool ?(full = false) () : t =
  let rows = plan ~full in
  let jobs =
    Array.of_list
      (List.concat_map
         (fun (family, _, ts) -> List.map (fun (w, th) -> (family, w, th)) ts)
         rows)
  in
  let results =
    Wfs_sim.Pool.map_heaviest_first pool
      ~weight:(fun (_, w, _) -> float_of_int w)
      (fun (family, _, th) ->
        Wfs_obs.Profile.span ~cat:"table"
          ~args:(fun () -> [ ("family", Wfs_obs.Json.str family) ])
          "table.evidence" th)
      jobs
  in
  let idx = ref 0 in
  List.map
    (fun (object_family, paper_level, ts) ->
      let evidence =
        List.concat_map
          (fun _ ->
            let r = results.(!idx) in
            incr idx;
            r)
          ts
      in
      { object_family; paper_level; evidence })
    rows

(* --- consistency with the paper --- *)

(* A row is consistent if every protocol at or below the claimed level
   verified, no protocol failed, classifications agree with the level,
   and no solver verdict contradicts the claim. *)
let row_consistent row =
  List.for_all
    (function
      | Protocol_verified _ -> true
      | Protocol_failed _ -> false
      | Classified v -> (
          match (row.paper_level, v.Interference.level) with
          | "1", `Level_1 -> true
          | "1 (point-to-point, DDS)", `Level_1 -> true
          | "2", `Level_2 -> true
          | _, `Above_2 -> true (* classifier places it above Thm 6's reach *)
          | _, _ -> false)
      | Solver_verdict { outcome; _ } -> (
          (* the solver may prove impossibility (levels "1"/"2") or find
             protocols; a budget exhaustion is inconclusive, not a
             contradiction *)
          match (row.paper_level, outcome) with
          | ("1" | "1 (point-to-point, DDS)"), `Unsolvable -> true
          | "2", `Unsolvable -> true (* at n = 3 *)
          | _, `Solvable -> true
          | _, `Budget -> true
          | _, _ -> false))
    row.evidence

let consistent table = List.for_all row_consistent table

(* --- printing --- *)

let pp_outcome ppf = function
  | `Solvable -> Fmt.string ppf "solvable"
  | `Unsolvable -> Fmt.string ppf "UNSOLVABLE"
  | `Budget -> Fmt.string ppf "budget exhausted"

let pp_evidence ppf = function
  | Protocol_verified { n; states; protocol } ->
      Fmt.pf ppf "protocol %s verified for n=%d (%d states, all schedules)"
        protocol n states
  | Protocol_failed { n; protocol } ->
      Fmt.pf ppf "protocol %s FAILED for n=%d" protocol n
  | Classified v ->
      Fmt.pf ppf "Thm 6 classifier: interfering=%b, level %a"
        v.Interference.interfering_set Interference.pp_level
        v.Interference.level
  | Solver_verdict { n; depth; outcome } ->
      Fmt.pf ppf "solver (n=%d, ≤%d ops/process): %a" n depth pp_outcome
        outcome

let pp ppf (table : t) =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf row ->
         Fmt.pf ppf "@[<v 2>%-34s level %s  %s@ %a@]" row.object_family
           row.paper_level
           (if row_consistent row then "[consistent]" else "[INCONSISTENT]")
           (Fmt.list ~sep:Fmt.cut pp_evidence)
           row.evidence))
    table
