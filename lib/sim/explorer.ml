(* Exhaustive interleaving exploration.

   The adversarial scheduler of the wait-free model is universally
   quantified; for protocols with finite reachable state spaces we can
   quantify literally, by depth-first search over "which undecided process
   takes the next atomic step".

   Joint protocol states — local states, decisions, environment state,
   plus the set of processes that have taken at least one step (needed for
   the paper's validity condition) — are encoded as values and interned
   to dense int ids (see [Intern]); every structure downstream of the
   interner is an array indexed by id.

   Wait-freedom on a finite state graph is exactly acyclicity: an infinite
   execution must revisit a joint state, and every edge is a step of an
   undecided process, so a reachable cycle is precisely a schedule on
   which some process runs forever without deciding.  Conversely in a DAG
   every execution reaches a terminal state, and the longest-path bound
   gives the strong-wait-freedom step bound of §2.4.

   The engine is an iterative DFS over interned ids with the
   longest-path DP fused into the same pass: step bounds are combined
   post-order as frames pop, so no edge is ever re-derived and deep
   graphs cannot overflow the OCaml stack.  The test tree keeps a
   recursive two-pass reference over the public successor relation. *)

open Wfs_spec

type config = { procs : Process.t array; env : Env.t }

type node = {
  locals : Value.t array;
  decided : Value.t option array;
  env_state : Env.state;
  stepped : int;  (* bitmask: processes that have taken ≥ 1 step *)
  crashed : int;  (* bitmask: processes halted by the crash adversary *)
}

type terminal = {
  decisions : Value.t option array;
      (* [None] = crashed before deciding *)
  who_stepped : int;  (* bitmask of processes that took ≥ 1 step *)
  who_crashed : int;  (* bitmask of processes crashed in this execution *)
}

type truncation = Budget_states | Budget_depth

type stats = {
  states : int;  (** distinct joint states visited *)
  terminals : terminal list;
      (** deduplicated (decision vector, stepped mask) terminal outcomes *)
  cyclic : bool;  (** a reachable cycle exists — not wait-free *)
  stuck : (int * string) option;
      (** a process raised / had no enabled action *)
  truncated : bool;  (** state or depth budget exhausted *)
  truncation : truncation option;
      (** which budget was exhausted first, when truncated *)
  invalid_decisions : (int * Value.t) list;
      (** decide events naming a process that had not yet stepped *)
  step_bounds : int array option;
      (** per-process worst-case step counts (longest path), when the
          graph is acyclic and fully explored *)
}

let initial config =
  {
    locals = Array.map (fun p -> p.Process.init) config.procs;
    decided = Array.make (Array.length config.procs) None;
    env_state = Env.init config.env;
    stepped = 0;
    crashed = 0;
  }

let key node =
  Value.list
    [
      Value.list (Array.to_list node.locals);
      Value.list
        (Array.to_list (Array.map Value.of_option node.decided));
      Env.encode node.env_state;
      Value.int node.stepped;
      Value.int node.crashed;
    ]

(* Canonical key under full process symmetry: processes are
   interchangeable, so sort the per-process (local, decision, stepped)
   components before encoding.  Sound only when every process runs the
   same pid-independent program over a pid-independent environment —
   then permuting process indices is a graph automorphism and one orbit
   representative stands for all.  Gated behind [explore ~symmetry]. *)
let canonical_key node =
  let n = Array.length node.locals in
  let comps =
    List.init n (fun i ->
        Value.pair node.locals.(i)
          (Value.pair
             (Value.of_option node.decided.(i))
             (Value.pair
                (Value.bool (node.stepped land (1 lsl i) <> 0))
                (Value.bool (node.crashed land (1 lsl i) <> 0)))))
  in
  Value.list
    [
      Value.list (List.sort Value.compare comps); Env.encode node.env_state;
    ]

let popcount =
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  fun m -> go 0 m

(* Terminal under the crash-stop adversary: every process has decided or
   been crashed.  With no crashes injected this is the original "all
   decided" condition. *)
let is_terminal node =
  let n = Array.length node.decided in
  let rec go i =
    i >= n
    || ((node.decided.(i) <> None || node.crashed land (1 lsl i) <> 0)
       && go (i + 1))
  in
  go 0

type edge = Decide_edge of Value.t | Op_edge | Crash_edge

(* The successors of a node: one per live undecided process, plus — when
   the crash budget is not exhausted — one [Crash_edge] per live
   undecided process, modelling the adversary halting it at exactly this
   point.  A [Decide] transition is itself a step for scheduling
   purposes (the DECIDE output event), but does not touch the
   environment; a [Crash_edge] is not a step of anyone (the crashed
   process is simply never scheduled again), so it neither sets the
   [stepped] bit nor counts toward step bounds.  Crash edges come first
   so counterexample search surfaces crash-involving schedules early. *)
let successors_with_edges ?(crashes = 0) config node =
  let n = Array.length config.procs in
  let live pid =
    node.decided.(pid) = None && node.crashed land (1 lsl pid) = 0
  in
  let step_edges =
    let rec go pid acc =
      if pid < 0 then acc
      else if not (live pid) then go (pid - 1) acc
      else
        let proc = config.procs.(pid) in
        let edge, succ =
          match Process.action proc node.locals.(pid) with
          | Process.Decide v ->
              let decided = Array.copy node.decided in
              decided.(pid) <- Some v;
              ( Decide_edge v,
                { node with decided; stepped = node.stepped lor (1 lsl pid) } )
          | Process.Invoke { obj; op; next } ->
              let env_state, res = Env.apply config.env node.env_state obj op in
              let locals = Array.copy node.locals in
              locals.(pid) <- next res;
              ( Op_edge,
                {
                  node with
                  locals;
                  env_state;
                  stepped = node.stepped lor (1 lsl pid);
                } )
        in
        go (pid - 1) ((pid, edge, succ) :: acc)
    in
    go (n - 1) []
  in
  if crashes <= popcount node.crashed then step_edges
  else
    let rec crash pid acc =
      if pid < 0 then acc
      else if not (live pid) then crash (pid - 1) acc
      else
        crash (pid - 1)
          (( pid,
             Crash_edge,
             { node with crashed = node.crashed lor (1 lsl pid) } )
          :: acc)
    in
    crash (n - 1) step_edges

let successors ?crashes config node =
  List.map
    (fun (pid, _, succ) -> (pid, succ))
    (successors_with_edges ?crashes config node)

(* Validity of a decision at the moment it is output (§3, partial
   correctness condition 2, applied to every history prefix): a decision
   naming P_j requires that P_j has already taken a step, or that P_j is
   the decider itself (the decide is then P_j's step). *)
let decision_valid node ~pid v =
  match v with
  | Value.Int j ->
      j = pid || (j >= 0 && node.stepped land (1 lsl j) <> 0)
  | _ -> false

(* --- invalid-decision accounting ---

   Deduplicated (pid, value) pairs with an O(1) membership check per
   edge (the old accounting ran [List.length] per edge and recorded
   duplicates), capped at [max_invalid] distinct entries; the report is
   sorted so it is stable across engines and traversal orders. *)

let max_invalid = 10

let invalid_make () : (int * Value.t) Value.Tbl.t = Value.Tbl.create 8

let invalid_note acc pid v =
  if Value.Tbl.length acc < max_invalid then begin
    let k = Value.pair (Value.int pid) v in
    if not (Value.Tbl.mem acc k) then Value.Tbl.replace acc k (pid, v)
  end

let invalid_report acc =
  Value.Tbl.fold (fun _ pv l -> pv :: l) acc []
  |> List.sort (fun (p, v) (q, w) ->
         match Int.compare p q with 0 -> Value.compare v w | c -> c)

(* --- partial-order reduction: sleep sets over pending actions ---

   Each live process has exactly one pending step action (its program is
   deterministic), plus — under a crash budget — a pending crash.  A
   sleep mask travels down the DFS: bit [q] says q's pending step, and
   bit [q + crash_shift] says q's pending crash, were already explored
   at an ancestor node and every move taken since is independent of
   them, so any schedule moving q here is an adjacent-transposition
   rearrangement of an already-explored schedule reaching the same
   states with the same observations.

   Pruning a slept edge must not change any output:

   - [states], [terminals], [stuck]: sleep sets alone (no persistent
     sets) visit every reachable state — only redundant *edges* are
     skipped — so state-derived outputs are untouched.
   - [cyclic]: only *monotone* edges are pruned — decides, crashes, and
     first steps, each of which strictly grows a component of the state
     ([decided] slots, [crashed] mask, [stepped] mask) that no
     transition shrinks.  No cycle can contain a monotone edge, so the
     reduced graph keeps every cycle of the full graph, and a DFS that
     visits all states finds one iff the full graph has one.
   - [step_bounds]: every root-to-terminal path has a surviving
     rearrangement with the same per-process action multiset, so the
     per-process longest-path maxima are unchanged.
   - [invalid_decisions]: noted for every *generated* edge, before the
     pruning decision, so the noted set is the unreduced one.

   Independence is checked conditionally, at the state where the
   transposition would occur ([Independence.independent_at]): when the
   mask bit for q survives the expansion of each node along the path,
   each adjacent swap in the rearrangement chain has been checked at
   exactly the state where that pair executes.  A crash or a decide
   touches only its own process's slot of the joint state and no
   environment, so either commutes with any move of another process;
   Do/Do pairs consult the semantic diamond.

   The slept process has not moved since its branch was explored (a
   move would have cleared the bit), so its pending action — and, for
   invokes, the fact that the operation dispatches without
   [Unknown_operation] — is the one already seen at the ancestor;
   skipping [Env.apply] for it cannot lose a [stuck] verdict.

   Masks are a function of the arrival path; in the parallel engine the
   claiming arrival's mask is the one used, which is race-dependent —
   but every output above is preserved under *any* valid sleep pruning,
   so verdicts stay schedule- and [-j]-independent (the pruned-edge
   counter, like intern contention, is not). *)

let crash_shift = 16

(* Successors of [node] under arrival sleep mask [arrival], in the
   incumbent canonical order (crash edges first, then steps, pid
   ascending), as [(pid_code, successor, child_mask)] with crash edges
   coded [-2 - pid].  Slept monotone edges are skipped entirely — no
   [Env.apply], no interning; [on_pruned] counts them.  [note_invalid]
   fires for every generated decide edge failing validity, pruned or
   not; [on_crash] counts kept crash edges. *)
let successors_with_sleep ~crashes ~ind ~note_invalid ~on_crash ~on_pruned
    config node arrival =
  let n = Array.length config.procs in
  let live pid =
    node.decided.(pid) = None && node.crashed land (1 lsl pid) = 0
  in
  let acts = Array.make n None in
  for pid = 0 to n - 1 do
    if live pid then
      acts.(pid) <- Some (Process.action config.procs.(pid) node.locals.(pid))
  done;
  (* may the pending steps [aq] and [a] be transposed at this state? *)
  let indep_step aq a =
    match (aq, a) with
    | ( Process.Invoke { obj = o1; op = op1; _ },
        Process.Invoke { obj = o2; op = op2; _ } ) ->
        Independence.independent_at ind node.env_state o1 op1 o2 op2
    | _ -> true
  in
  let crash_budget = crashes > popcount node.crashed in
  let earlier_steps = ref 0 and earlier_crashes = ref 0 in
  (* sleep mask for the subtree entered by [pid] doing [a]
     ([None] = crashing): q's pending action sleeps there when its
     branch is covered at this node — slept on arrival or explored as
     an earlier sibling — and it is independent of [a]. *)
  let child_mask pid a =
    let m = ref 0 in
    for q = 0 to n - 1 do
      if q <> pid && live q then begin
        (match acts.(q) with
        | Some aq
          when (arrival land (1 lsl q) <> 0
               || !earlier_steps land (1 lsl q) <> 0)
               && (match a with None -> true | Some a -> indep_step aq a) ->
            m := !m lor (1 lsl q)
        | _ -> ());
        if
          crash_budget
          && (arrival land (1 lsl (q + crash_shift)) <> 0
             || !earlier_crashes land (1 lsl q) <> 0)
        then m := !m lor (1 lsl (q + crash_shift))
      end
    done;
    !m
  in
  let kept = ref [] in
  if crash_budget then
    for pid = 0 to n - 1 do
      if live pid then
        if arrival land (1 lsl (pid + crash_shift)) <> 0 then on_pruned ()
        else begin
          on_crash ();
          let succ = { node with crashed = node.crashed lor (1 lsl pid) } in
          kept := (-2 - pid, succ, child_mask pid None) :: !kept;
          earlier_crashes := !earlier_crashes lor (1 lsl pid)
        end
    done;
  for pid = 0 to n - 1 do
    match acts.(pid) with
    | None -> ()
    | Some a ->
        (match a with
        | Process.Decide v when not (decision_valid node ~pid v) ->
            note_invalid pid v
        | _ -> ());
        let slept = arrival land (1 lsl pid) <> 0 in
        let monotone =
          match a with
          | Process.Decide _ -> true
          | Process.Invoke _ -> node.stepped land (1 lsl pid) = 0
        in
        if slept && monotone then on_pruned ()
        else begin
          let succ =
            match a with
            | Process.Decide v ->
                let decided = Array.copy node.decided in
                decided.(pid) <- Some v;
                { node with decided; stepped = node.stepped lor (1 lsl pid) }
            | Process.Invoke { obj; op; next } ->
                let env_state, res =
                  Env.apply config.env node.env_state obj op
                in
                let locals = Array.copy node.locals in
                locals.(pid) <- next res;
                {
                  node with
                  locals;
                  env_state;
                  stepped = node.stepped lor (1 lsl pid);
                }
          in
          kept := (pid, succ, child_mask pid (Some a)) :: !kept;
          earlier_steps := !earlier_steps lor (1 lsl pid)
        end
  done;
  List.rev !kept

(* Metric names: ROADMAP's measurement substrate.  Totals accumulate in
   plain refs during the DFS (the explorer is single-threaded) and are
   flushed to the shared registry once per run. *)
module M = struct
  open Wfs_obs.Metrics

  let runs = Counter.make "explorer.runs"

  (* "explorer.states" is the process-wide states-explored counter:
     exposed as wfs_explorer_states_total.  The solver adds its schedule
     nodes here too, so a scrape of any engine shows live progress. *)
  let states = Counter.make "explorer.states"
  let frontier = Gauge.make "explorer.frontier"
  let dedup_hits = Counter.make "explorer.dedup_hits"
  let dedup_lookups = Counter.make "explorer.dedup_lookups"
  let dedup_hit_rate = Fgauge.make "explorer.dedup_hit_rate"
  let max_depth_seen = Gauge.make "explorer.max_depth"
  let truncated_states = Counter.make "explorer.truncated.states"
  let truncated_depth = Counter.make "explorer.truncated.depth"
  let intern_hits = Counter.make "explorer.intern.hits"
  let intern_lookups = Counter.make "explorer.intern.lookups"
  let arena_size = Gauge.make "explorer.intern.arena_size"
  let fused_edges = Counter.make "explorer.fused_dp.edges"
  let crash_edges = Counter.make "explorer.crash_edges"
  let intern_contention = Counter.make "explorer.intern.contention"

  (* edges skipped by the sleep-set reduction: each was a redundant
     interleaving of an already-explored schedule (no [Env.apply], no
     intern lookup spent on it) *)
  let por_pruned = Counter.make "explorer.por.pruned"
end

(* [states_flushed] is what live batched ticks already pushed to
   [M.states] mid-run; only the remainder lands here, so live flushing
   never double-counts. *)
let flush_metrics ?(states_flushed = 0) ~states ~hits ~lookups ~deepest
    ~truncation ~cyclic ~intern () =
  let open Wfs_obs.Metrics in
  Counter.incr M.runs;
  Counter.add M.states (states - states_flushed);
  Counter.add M.dedup_hits hits;
  Counter.add M.dedup_lookups lookups;
  Fgauge.set M.dedup_hit_rate
    (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups);
  Gauge.set_max M.max_depth_seen deepest;
  (match truncation with
  | Some Budget_states -> Counter.incr M.truncated_states
  | Some Budget_depth -> Counter.incr M.truncated_depth
  | None -> ());
  (match intern with
  | Some tbl ->
      Counter.add M.intern_hits (Intern.hits tbl);
      Counter.add M.intern_lookups (Intern.lookups tbl);
      Gauge.set_max M.arena_size (Intern.size tbl)
  | None -> ());
  Wfs_obs.Profile.instant ~cat:"explore"
    ~args:(fun () ->
      [
        ("states", Wfs_obs.Json.int states);
        ("max_depth", Wfs_obs.Json.int deepest);
        ("cyclic", Wfs_obs.Json.bool cyclic);
        ("truncated", Wfs_obs.Json.bool (truncation <> None));
      ])
    "explorer.done"

(* --- the fused single-pass engine --- *)

(* One frame per node being expanded.  [f_best] accumulates the
   longest-path DP post-order: when the child explored via [f_pending]
   finishes, its bounds fold into [f_best], so the DP needs no second
   traversal.

   Crash edges are encoded in the pid arrays as [-2 - pid]: [combine]
   adds the +1 step only when its pid argument matches a real process
   index, so a crash edge folds the child's bounds in verbatim —
   crashing is not a step of anyone. *)
type frame = {
  f_id : int;  (* interned id of the node *)
  f_pids : int array;  (* successor pids, in canonical order *)
  f_nodes : node array;  (* successor nodes, computed exactly once *)
  f_masks : int array;  (* per-successor arrival sleep masks ([||] = none) *)
  mutable f_next : int;  (* next successor index to explore *)
  mutable f_pending : int;  (* pid of the in-flight successor *)
  f_best : int array;  (* running per-process longest-path maxima *)
}

let white = '\000'
let gray = '\001'
let black = '\002'

let explore_fast ~max_states ~max_depth ~symmetry ~crashes ~indep config =
  let n = Array.length config.procs in
  let encode = if symmetry then canonical_key else key in
  let size_hint = max 16 (min max_states 8192) in
  let tbl = Intern.create ~size_hint () in
  (* colors and DP bounds are arrays indexed by interned id, grown in
     lockstep with the arena *)
  let colors = ref (Bytes.make size_hint white) in
  let bounds = ref (Array.make size_hint [||]) in
  let ensure id =
    let cap = Bytes.length !colors in
    if id >= cap then begin
      let cap' = max (id + 1) (2 * cap) in
      let c = Bytes.make cap' white in
      Bytes.blit !colors 0 c 0 cap;
      colors := c;
      let b = Array.make cap' [||] in
      Array.blit !bounds 0 b 0 cap;
      bounds := b
    end
  in
  let zeros = Array.make n 0 in
  let terminals : terminal Value.Tbl.t = Value.Tbl.create 64 in
  let cyclic = ref false in
  let stuck = ref None in
  let truncation = ref None in
  let invalid = invalid_make () in
  let lookups = ref 0 in
  let hits = ref 0 in
  let visited = ref 0 in
  let live_flushed = ref 0 in
  let deepest = ref 0 in
  let fused = ref 0 in
  let crash_seen = ref 0 in
  let por_cut = ref 0 in
  let stack : frame Stack.t = Stack.create () in
  let combine f pid child =
    incr fused;
    let best = f.f_best in
    for p = 0 to n - 1 do
      let v = child.(p) + if p = pid then 1 else 0 in
      if v > best.(p) then best.(p) <- v
    done
  in
  (* successors as [(pid_code, succ, child_mask)] with all edge-level
     noting done — the sleep-set path and the unreduced path produce
     the same shape, the latter with empty masks *)
  let expand_node node arrival =
    match indep with
    | Some ind ->
        successors_with_sleep ~crashes ~ind
          ~note_invalid:(invalid_note invalid)
          ~on_crash:(fun () -> incr crash_seen)
          ~on_pruned:(fun () -> incr por_cut)
          config node arrival
    | None ->
        List.map
          (fun (pid, edge, succ) ->
            (match edge with
            | Decide_edge v when not (decision_valid node ~pid v) ->
                invalid_note invalid pid v
            | Crash_edge -> incr crash_seen
            | Decide_edge _ | Op_edge -> ());
            ((match edge with Crash_edge -> -2 - pid | _ -> pid), succ, 0))
          (successors_with_edges ~crashes config node)
  in
  (* Enter [node] (reached from [parent] by a step of [via_pid], with
     arrival sleep mask [arrival]).  Hits on finished nodes fold their
     bounds straight into the parent; fresh nodes either settle
     immediately (terminal / stuck) or push a frame. *)
  let visit parent via_pid node arrival depth =
    if depth > !deepest then deepest := depth;
    incr lookups;
    let id = Intern.intern tbl (encode node) in
    ensure id;
    let finish_leaf () =
      Bytes.set !colors id black;
      !bounds.(id) <- zeros;
      match parent with Some f -> combine f via_pid zeros | None -> ()
    in
    match Bytes.get !colors id with
    | c when c = gray ->
        incr hits;
        cyclic := true
    | c when c = black ->
        incr hits;
        (match parent with
        | Some f -> combine f via_pid !bounds.(id)
        | None -> ())
    | _ ->
        if !visited >= max_states then
          (if !truncation = None then truncation := Some Budget_states)
        else if depth >= max_depth then
          (if !truncation = None then truncation := Some Budget_depth)
        else begin
          incr visited;
          (* batched live flush: one modulo test per 1024 states *)
          if !visited land 1023 = 0 then begin
            live_flushed := !live_flushed + 1024;
            Wfs_obs.Metrics.Counter.add M.states 1024;
            Wfs_obs.Metrics.Gauge.set M.frontier (Stack.length stack);
            Pool.note_states 1024
          end;
          if is_terminal node then begin
            let decisions = Array.copy node.decided in
            Value.Tbl.replace terminals
              (Value.pair
                 (Value.list
                    (Array.to_list (Array.map Value.of_option decisions)))
                 (Value.pair
                    (Value.int node.stepped)
                    (Value.int node.crashed)))
              {
                decisions;
                who_stepped = node.stepped;
                who_crashed = node.crashed;
              };
            finish_leaf ()
          end
          else begin
            let pruned0 = !por_cut in
            match expand_node node arrival with
            | exception Object_spec.Unknown_operation { obj; op } ->
                stuck :=
                  Some (-1, Fmt.str "unknown operation %a on %s" Op.pp op obj);
                finish_leaf ()
            | [] ->
                (* all successors slept away: a legitimate leaf, its
                   outcomes covered through the representative paths *)
                if !por_cut > pruned0 then finish_leaf ()
                else begin
                  stuck := Some (-1, "no successor");
                  finish_leaf ()
                end
            | succs ->
                Bytes.set !colors id gray;
                let m = List.length succs in
                let pids = Array.make m (-1) in
                let nodes = Array.make m node in
                let masks = Array.make m 0 in
                List.iteri
                  (fun i (code, succ, mask) ->
                    pids.(i) <- code;
                    nodes.(i) <- succ;
                    masks.(i) <- mask)
                  succs;
                Stack.push
                  {
                    f_id = id;
                    f_pids = pids;
                    f_nodes = nodes;
                    f_masks = masks;
                    f_next = 0;
                    f_pending = -1;
                    f_best = Array.make n 0;
                  }
                  stack
          end
        end
  in
  visit None (-1) (initial config) 0 0;
  while not (Stack.is_empty stack) do
    let f = Stack.top stack in
    if f.f_next < Array.length f.f_pids then begin
      let i = f.f_next in
      f.f_next <- i + 1;
      f.f_pending <- f.f_pids.(i);
      visit (Some f) f.f_pids.(i) f.f_nodes.(i) f.f_masks.(i)
        (Stack.length stack)
    end
    else begin
      ignore (Stack.pop stack);
      !bounds.(f.f_id) <- f.f_best;
      Bytes.set !colors f.f_id black;
      match Stack.top_opt stack with
      | Some parent -> combine parent parent.f_pending f.f_best
      | None -> ()
    end
  done;
  let truncated = !truncation <> None in
  let acyclic = (not !cyclic) && (not truncated) && !stuck = None in
  let step_bounds =
    if not acyclic then None
    else begin
      let root_id = Intern.intern tbl (encode (initial config)) in
      Some (Array.copy !bounds.(root_id))
    end
  in
  let states = !visited in
  flush_metrics ~states_flushed:!live_flushed ~states ~hits:!hits
    ~lookups:!lookups ~deepest:!deepest ~truncation:!truncation
    ~cyclic:!cyclic ~intern:(Some tbl) ();
  Pool.note_states (states - !live_flushed);
  Wfs_obs.Metrics.Counter.add M.fused_edges !fused;
  Wfs_obs.Metrics.Counter.add M.crash_edges !crash_seen;
  Wfs_obs.Metrics.Counter.add M.por_pruned !por_cut;
  {
    states;
    terminals = Value.Tbl.fold (fun _ d acc -> d :: acc) terminals [];
    cyclic = !cyclic;
    stuck = !stuck;
    truncated;
    truncation = !truncation;
    invalid_decisions = invalid_report invalid;
    step_bounds;
  }

(* --- the parallel engine --- *)

(* Reachability is parallelised; the verdict pass is not.

   Phase 1 (parallel): a short sequential BFS from the root grows a
   frontier of claimed-but-unexpanded nodes — disjoint top-level
   schedule prefixes — which become pool jobs.  Workers share exactly
   one structure, the lock-striped interner ([Intern.Sharded]): its
   claim bit makes each distinct state the property of whichever worker
   interned it first, so every node is expanded exactly once and the
   global state count is exact, schedule-independent, and equal to the
   sequential engine's.  Everything else a worker writes — the int
   adjacency of the nodes it expanded, terminals, invalid decides,
   crash-edge counts — goes into a private record.

   Phase 2 (sequential): cycle detection and the fused longest-path DP
   cannot be split across workers (a cycle, and a longest path, can
   thread through several workers' territories), but by then the
   expensive work — [successors_with_edges], [Env.apply], hashing —
   is already done.  Phase 2 is a DFS over int arrays: a few machine
   operations per edge, a small fraction of phase-1 cost.

   Determinism: on runs that complete within budget, [states],
   [terminals], [cyclic], [stuck = None], validity and [step_bounds]
   are all schedule-independent (terminals are deduped by the same
   value key as the sequential engines and reported sorted).  Budget
   truncation is the one racy edge: which states fall inside a
   just-exceeded budget depends on the schedule, so truncated parallel
   runs may differ marginally from sequential ones — conservatively,
   since a truncated run never claims wait-freedom.  [-j 1] bypasses
   this engine entirely. *)

module MP = struct
  open Wfs_obs.Metrics

  let runs = Counter.make "explorer.par.runs"
  let seeds = Counter.make "explorer.par.seeds"
  let domains = Gauge.make "explorer.par.domains"
end

let terminal_key node =
  Value.pair
    (Value.list (Array.to_list (Array.map Value.of_option node.decided)))
    (Value.pair (Value.int node.stepped) (Value.int node.crashed))

(* Private per-worker record; merged single-threaded after the join. *)
type prec = {
  mutable r_edges : (int * int array * int array) list;
      (* (src id, pid codes, dst ids) — crash edges coded [-2 - pid] *)
  r_terminals : terminal Value.Tbl.t;
  r_invalid : (int * Value.t) Value.Tbl.t;
  mutable r_stuck : (int * string) option;
  mutable r_deepest : int;
  mutable r_crash : int;
  mutable r_truncation : truncation option;
  mutable r_claimed : int;  (* fresh states this worker claimed *)
  mutable r_claimed_flushed : int;  (* ...of which already flushed live *)
  mutable r_pruned : int;  (* edges skipped by the sleep-set reduction *)
}

let prec_make () =
  {
    r_edges = [];
    r_terminals = Value.Tbl.create 16;
    r_invalid = invalid_make ();
    r_stuck = None;
    r_deepest = 0;
    r_crash = 0;
    r_truncation = None;
    r_claimed = 0;
    r_claimed_flushed = 0;
    r_pruned = 0;
  }

(* Push this record's unreported claims to the global states counter and
   the claiming domain's [pool.shard.states] series.  Called at batched
   tick points and once at job end, so the sum over all records equals
   the exact state count with nothing double-counted. *)
let flush_claims rec_ =
  let d = rec_.r_claimed - rec_.r_claimed_flushed in
  if d > 0 then begin
    Wfs_obs.Metrics.Counter.add M.states d;
    Pool.note_states d;
    rec_.r_claimed_flushed <- rec_.r_claimed
  end

let explore_par ~pool ~max_states ~max_depth ~symmetry ~crashes ~indep config
    =
  let n = Array.length config.procs in
  let workers = Pool.size pool in
  let encode = if symmetry then canonical_key else key in
  let stbl =
    Intern.Sharded.create ~stripes:(max 61 (4 * workers))
      ~size_hint:(max 16 (min max_states 65536)) ()
  in
  let visited = Atomic.make 0 in
  (* Claim [node]: on first sight across all domains, count it and
     either record it as a terminal or hand it to [enqueue] for
     expansion.  Always returns the id so the caller can record the
     edge — edges to already-claimed nodes are what phase 2's cycle
     detection feeds on.  [mask] is the arrival sleep mask; the
     claiming arrival's mask is the one the eventual expansion uses
     (any valid mask preserves every verdict — see the sleep-set
     notes above). *)
  let consider_claimed rec_ ~enqueue node mask depth (id, fresh) =
    if depth > rec_.r_deepest then rec_.r_deepest <- depth;
    (if fresh then
       if Atomic.get visited >= max_states then (
         if rec_.r_truncation = None then rec_.r_truncation <- Some Budget_states)
       else if depth >= max_depth then (
         if rec_.r_truncation = None then rec_.r_truncation <- Some Budget_depth)
       else begin
         ignore (Atomic.fetch_and_add visited 1);
         rec_.r_claimed <- rec_.r_claimed + 1;
         if is_terminal node then
           Value.Tbl.replace rec_.r_terminals (terminal_key node)
             {
               decisions = Array.copy node.decided;
               who_stepped = node.stepped;
               who_crashed = node.crashed;
             }
         else enqueue (node, id, mask, depth)
       end);
    id
  in
  let consider rec_ ~enqueue node mask depth =
    consider_claimed rec_ ~enqueue node mask depth
      (Intern.Sharded.intern stbl (encode node))
  in
  let expand rec_ ~enqueue (node, id, mask, depth) =
    let expansion =
      match indep with
      | Some ind ->
          successors_with_sleep ~crashes ~ind
            ~note_invalid:(invalid_note rec_.r_invalid)
            ~on_crash:(fun () -> rec_.r_crash <- rec_.r_crash + 1)
            ~on_pruned:(fun () -> rec_.r_pruned <- rec_.r_pruned + 1)
            config node mask
      | None ->
          List.map
            (fun (pid, edge, succ) ->
              (match edge with
              | Decide_edge v when not (decision_valid node ~pid v) ->
                  invalid_note rec_.r_invalid pid v
              | Crash_edge -> rec_.r_crash <- rec_.r_crash + 1
              | Decide_edge _ | Op_edge -> ());
              ((match edge with Crash_edge -> -2 - pid | _ -> pid), succ, 0))
            (successors_with_edges ~crashes config node)
    in
    match expansion with
    | exception Object_spec.Unknown_operation { obj; op } ->
        if rec_.r_stuck = None then
          rec_.r_stuck <-
            Some (-1, Fmt.str "unknown operation %a on %s" Op.pp op obj)
    | [] ->
        (* with reduction on, an all-pruned node is a covered leaf,
           not a stuck state *)
        (match indep with
        | None ->
            if rec_.r_stuck = None then
              rec_.r_stuck <- Some (-1, "no successor")
        | Some _ -> ())
    | succs ->
        (* claim all successors in one batched pass over the interner's
           stripes — one lock round-trip per stripe instead of one per
           edge *)
        let m = List.length succs in
        let pids = Array.make m (-1) in
        let dsts = Array.make m (-1) in
        let nodes = Array.make m node in
        let masks = Array.make m 0 in
        List.iteri
          (fun i (code, succ, cmask) ->
            pids.(i) <- code;
            nodes.(i) <- succ;
            masks.(i) <- cmask)
          succs;
        let claims = Intern.Sharded.intern_batch stbl (Array.map encode nodes) in
        for i = 0 to m - 1 do
          dsts.(i) <-
            consider_claimed rec_ ~enqueue nodes.(i) masks.(i) (depth + 1)
              claims.(i)
        done;
        rec_.r_edges <- (id, pids, dsts) :: rec_.r_edges
  in
  (* Seed BFS: expand breadth-first until the frontier is wide enough to
     feed every worker a couple of seeds.  Seeds are deliberately few
     and fat — per-seed job overhead (record allocation, profile spans,
     queue churn) was measurable against small explorations at low
     worker counts, and work stealing smooths the residual imbalance
     between fat subtrees.  The expansion cap keeps a stubbornly narrow
     frontier from dragging the whole exploration into this sequential
     phase. *)
  let rec0 = prec_make () in
  let root = initial config in
  let queue : (node * int * int * int) Queue.t = Queue.create () in
  let root_id =
    Wfs_obs.Profile.span ~cat:"explore" "explore.seeds" (fun () ->
        let root_id =
          consider rec0 ~enqueue:(fun x -> Queue.add x queue) root 0 0
        in
        let target = 2 * workers in
        let budget = ref (8 * target) in
        while
          (not (Queue.is_empty queue))
          && Queue.length queue < target
          && !budget > 0
        do
          decr budget;
          expand rec0 ~enqueue:(fun x -> Queue.add x queue) (Queue.pop queue)
        done;
        root_id)
  in
  let seeds = Array.of_seq (Queue.to_seq queue) in
  flush_claims rec0;
  (* Phase 1 proper: one DFS job per seed. *)
  let recs =
    Pool.parallel_map pool
      (fun (si, seed) ->
        Wfs_obs.Profile.span ~cat:"explore"
          ~args:(fun () -> [ ("seed", Wfs_obs.Json.int si) ])
          "explore.shard"
          (fun () ->
            let rec_ = prec_make () in
            let stack = Stack.create () in
            Stack.push seed stack;
            let enqueue x = Stack.push x stack in
            let ticks = ref 0 in
            while not (Stack.is_empty stack) do
              expand rec_ ~enqueue (Stack.pop stack);
              incr ticks;
              if !ticks land 255 = 0 then begin
                flush_claims rec_;
                Wfs_obs.Metrics.Gauge.set M.frontier (Stack.length stack)
              end
            done;
            flush_claims rec_;
            rec_))
      (Array.mapi (fun i s -> (i, s)) seeds)
  in
  let all_recs = rec0 :: Array.to_list recs in
  Wfs_obs.Profile.begin_ ~cat:"explore" "explore.merge";
  (* Merge.  Each expanded node's adjacency was recorded by exactly one
     worker, so the writes below never collide on an index. *)
  let sz = Intern.Sharded.size stbl in
  let adj_pids = Array.make sz [||] in
  let adj_dsts = Array.make sz [||] in
  let terminals : terminal Value.Tbl.t = Value.Tbl.create 64 in
  (* Uncapped merge: workers cap at [max_invalid] each, but which pairs
     a worker sees depends on claim races.  Merging everything and then
     sorting before the cap keeps the report deterministic whenever the
     distinct-pair count fits the cap (and the validity verdict — empty
     or not — is exact regardless). *)
  let invalid : (int * Value.t) Value.Tbl.t = Value.Tbl.create 16 in
  let stuck = ref None in
  let deepest = ref 0 in
  let crash_seen = ref 0 in
  let pruned = ref 0 in
  let states_trunc = ref false in
  let depth_trunc = ref false in
  List.iter
    (fun r ->
      List.iter
        (fun (id, pids, dsts) ->
          adj_pids.(id) <- pids;
          adj_dsts.(id) <- dsts)
        r.r_edges;
      Value.Tbl.iter (Value.Tbl.replace terminals) r.r_terminals;
      Value.Tbl.iter (Value.Tbl.replace invalid) r.r_invalid;
      if !stuck = None then stuck := r.r_stuck;
      if r.r_deepest > !deepest then deepest := r.r_deepest;
      crash_seen := !crash_seen + r.r_crash;
      pruned := !pruned + r.r_pruned;
      (match r.r_truncation with
      | Some Budget_states -> states_trunc := true
      | Some Budget_depth -> depth_trunc := true
      | None -> ()))
    all_recs;
  let truncation =
    if !states_trunc then Some Budget_states
    else if !depth_trunc then Some Budget_depth
    else None
  in
  Wfs_obs.Profile.end_ ();
  Wfs_obs.Profile.begin_ ~cat:"explore" "explore.phase2";
  (* Phase 2: cycle detection + longest-path DP over the int graph.
     Nodes with no recorded adjacency (terminals, and claimed-but-
     dropped nodes of truncated runs) are leaves with zero bounds —
     exactly the sequential engines' treatment. *)
  let cyclic = ref false in
  let fused = ref 0 in
  let colors = Bytes.make sz white in
  let bounds = Array.make sz [||] in
  let zeros = Array.make n 0 in
  let stack : frame Stack.t = Stack.create () in
  let combine f pid child =
    incr fused;
    let best = f.f_best in
    for p = 0 to n - 1 do
      let v = child.(p) + if p = pid then 1 else 0 in
      if v > best.(p) then best.(p) <- v
    done
  in
  let visit parent via_pid id =
    match Bytes.get colors id with
    | c when c = gray -> cyclic := true
    | c when c = black -> (
        match parent with Some f -> combine f via_pid bounds.(id) | None -> ())
    | _ ->
        if Array.length adj_pids.(id) = 0 then begin
          Bytes.set colors id black;
          bounds.(id) <- zeros;
          match parent with Some f -> combine f via_pid zeros | None -> ()
        end
        else begin
          Bytes.set colors id gray;
          Stack.push
            {
              f_id = id;
              f_pids = adj_pids.(id);
              f_nodes = [||];
              f_masks = [||];
              f_next = 0;
              f_pending = -1;
              f_best = Array.make n 0;
            }
            stack
        end
  in
  visit None (-1) root_id;
  while not (Stack.is_empty stack) do
    let f = Stack.top stack in
    if f.f_next < Array.length f.f_pids then begin
      let i = f.f_next in
      f.f_next <- i + 1;
      f.f_pending <- f.f_pids.(i);
      visit (Some f) f.f_pids.(i) adj_dsts.(f.f_id).(i)
    end
    else begin
      ignore (Stack.pop stack);
      bounds.(f.f_id) <- f.f_best;
      Bytes.set colors f.f_id black;
      match Stack.top_opt stack with
      | Some parent -> combine parent parent.f_pending f.f_best
      | None -> ()
    end
  done;
  Wfs_obs.Profile.end_ ();
  let truncated = truncation <> None in
  let acyclic = (not !cyclic) && (not truncated) && !stuck = None in
  let step_bounds = if acyclic then Some (Array.copy bounds.(root_id)) else None in
  let states = Atomic.get visited in
  let hits = Intern.Sharded.hits stbl in
  let lookups = Intern.Sharded.lookups stbl in
  let contended = Intern.Sharded.contention stbl in
  if Wfs_obs.Profile.enabled () then
    Wfs_obs.Profile.counter "explorer.intern.contention"
      [ ("contended", float_of_int contended) ];
  (* every fresh claim went through a record's [flush_claims], so the
     global counter already holds all [states] of this run *)
  flush_metrics ~states_flushed:states ~states ~hits ~lookups
    ~deepest:!deepest ~truncation ~cyclic:!cyclic ~intern:None ();
  let open Wfs_obs.Metrics in
  Counter.add M.intern_contention contended;
  Counter.add M.intern_hits hits;
  Counter.add M.intern_lookups lookups;
  Gauge.set_max M.arena_size sz;
  Counter.add M.fused_edges !fused;
  Counter.add M.crash_edges !crash_seen;
  Counter.add M.por_pruned !pruned;
  Counter.incr MP.runs;
  Counter.add MP.seeds (Array.length seeds);
  Gauge.set_max MP.domains workers;
  let terminal_list =
    Value.Tbl.fold (fun k d acc -> (k, d) :: acc) terminals []
    |> List.sort (fun (k1, _) (k2, _) -> Value.compare k1 k2)
    |> List.map snd
  in
  {
    states;
    terminals = terminal_list;
    cyclic = !cyclic;
    stuck = !stuck;
    truncated;
    truncation;
    invalid_decisions =
      (let all = invalid_report invalid in
       List.filteri (fun i _ -> i < max_invalid) all);
    step_bounds;
  }

let explore ?(max_states = 2_000_000) ?(max_depth = 10_000)
    ?(symmetry = false) ?(crashes = 0) ?pool config =
  if crashes < 0 then invalid_arg "Explorer.explore: crashes < 0";
  if max_states < 0 then
    invalid_arg
      (Fmt.str "Explorer.explore: max_states must be >= 0 (got %d)" max_states);
  if max_depth < 0 then
    invalid_arg
      (Fmt.str "Explorer.explore: max_depth must be >= 0 (got %d)" max_depth);
  (* The reduction composes with crashes and the parallel engine;
     [symmetry] already collapses orbits whose interaction with
     path-dependent sleep masks is not covered by the soundness
     argument, so it disables it.  Masks pack step and crash bits
     into one int, which caps the process count. *)
  let indep =
    if (not symmetry) && Array.length config.procs <= crash_shift then
      Some
        (Wfs_obs.Profile.span ~cat:"explore" "explore.independence"
           (fun () -> Independence.of_env config.env))
    else None
  in
  match pool with
  | Some p when Pool.size p > 1 ->
      Wfs_obs.Profile.span ~cat:"explore" "explore.par" (fun () ->
          explore_par ~pool:p ~max_states ~max_depth ~symmetry ~crashes ~indep
            config)
  | _ ->
      Wfs_obs.Profile.span ~cat:"explore" "explore.dfs" (fun () ->
          explore_fast ~max_states ~max_depth ~symmetry ~crashes ~indep config)

let wait_free stats =
  (not stats.cyclic) && (not stats.truncated) && stats.stuck = None
