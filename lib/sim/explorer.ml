(* Exhaustive interleaving exploration.

   The adversarial scheduler of the wait-free model is universally
   quantified; for protocols with finite reachable state spaces we can
   quantify literally, by depth-first search over "which undecided process
   takes the next atomic step".

   Joint protocol states — local states, decisions, environment state,
   plus the set of processes that have taken at least one step (needed for
   the paper's validity condition) and the set the adversary crashed —
   are packed into one flat string ([key]) and interned to dense int ids
   (see [Intern]); every structure downstream of the interner is an
   array indexed by id.

   Wait-freedom on a finite state graph is exactly acyclicity: an infinite
   execution must revisit a joint state, and every edge is a step of an
   undecided process, so a reachable cycle is precisely a schedule on
   which some process runs forever without deciding.  Conversely in a DAG
   every execution reaches a terminal state, and the longest-path bound
   gives the strong-wait-freedom step bound of §2.4.

   Two engines discover the graph; one walk judges it.  The sequential
   engine interns and expands each state as the walk first meets it.
   The parallel engine discovers the whole graph across a domain pool
   first, then runs the same walk over the recorded int adjacency.  The
   walk is an iterative post-order DFS over interned ids with the
   longest-path DP fused in: step bounds are combined as frames pop, so
   no edge is ever re-derived and deep graphs cannot overflow the OCaml
   stack.  Both engines expand a state through one step ([expand]) and
   build their result with one function ([report]).  The test tree
   keeps a recursive two-pass reference over the public successor
   relation.  [check] wraps [explore] for verifiers: one terminal
   check per distinct terminal, one verdict. *)

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
      (** deduplicated terminal outcomes, sorted by [terminal_key] *)
  cyclic : bool;  (** a reachable cycle exists — not wait-free *)
  stuck : (int * string) option;
      (** a process raised / had no enabled action *)
  truncated : bool;  (** state or depth budget exhausted *)
  truncation : truncation option;
      (** which budget was exhausted first, when truncated *)
  invalid_decisions : (int * Value.t) list;
      (** every distinct (pid, value) decide naming a process that had
          not yet stepped, sorted *)
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

(* The joint state packed into one flat string.  Marshalling is
   injective here: a node holds only ints, strings, immutable variants
   and arrays of them — no floats, closures or cycles — and [No_sharing]
   makes the bytes a function of the structure alone, never of which
   subvalues happen to be physically shared. *)
let key node =
  Marshal.to_string
    (node.locals, node.decided, node.env_state, node.stepped, node.crashed)
    [ Marshal.No_sharing ]

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

let live node pid =
  node.decided.(pid) = None && node.crashed land (1 lsl pid) = 0

(* The one successor step: [pid] performs its pending action.  A
   [Decide] fills its decision slot without touching the environment;
   an [Invoke] applies the operation (raising
   [Object_spec.Unknown_operation] when the object lacks it).  Both are
   steps of [pid] for scheduling purposes, so both set its [stepped]
   bit. *)
let step config node pid = function
  | Process.Decide v ->
      let decided = Array.copy node.decided in
      decided.(pid) <- Some v;
      { node with decided; stepped = node.stepped lor (1 lsl pid) }
  | Process.Invoke { obj; op; next } ->
      let env_state, res = Env.apply config.env node.env_state obj op in
      let locals = Array.copy node.locals in
      locals.(pid) <- next res;
      { node with locals; env_state; stepped = node.stepped lor (1 lsl pid) }

(* The adversary halts [pid]: not a step of anyone (the crashed process
   is simply never scheduled again), so it neither sets the [stepped]
   bit nor counts toward step bounds. *)
let crash node pid = { node with crashed = node.crashed lor (1 lsl pid) }

(* The successors of a node: one per live undecided process, plus — when
   the crash budget is not exhausted — one [Crash_edge] per live
   undecided process, modelling the adversary halting it at exactly this
   point.  Crash edges come first so counterexample search surfaces
   crash-involving schedules early. *)
let successors_with_edges ?(crashes = 0) config node =
  let pids =
    List.filter (live node) (List.init (Array.length config.procs) Fun.id)
  in
  let steps =
    List.map
      (fun pid ->
        let a = Process.action config.procs.(pid) node.locals.(pid) in
        let edge =
          match a with
          | Process.Decide v -> Decide_edge v
          | Process.Invoke _ -> Op_edge
        in
        (pid, edge, step config node pid a))
      pids
  in
  if crashes <= popcount node.crashed then steps
  else List.map (fun pid -> (pid, Crash_edge, crash node pid)) pids @ steps

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

(* --- the per-run record ---

   Everything a search learns about the states it claims, apart from
   the graph's shape: the sequential engine keeps one, the parallel
   engine one per seed job plus one for the seed phase, merged by
   [report].  Terminals are deduplicated by outcome (decision vector
   plus the stepped and crashed masks); invalid decides by their
   (pid, value) pair, every distinct pair kept — there are at most n
   times the number of decision values. *)
type prec = {
  mutable r_edges : (int * int array * int array) list;
      (* parallel discovery only: (src id, pid codes, dst ids) — crash
         edges coded [-2 - pid] *)
  r_terminals : terminal Value.Tbl.t;
  r_invalid : (int * Value.t) Value.Tbl.t;
  mutable r_stuck : (int * string) option;
  mutable r_crash : int;  (* crash edges kept *)
  mutable r_truncation : truncation option;
  mutable r_claimed : int;  (* fresh states this record claimed *)
  mutable r_claimed_flushed : int;  (* ...of which already flushed live *)
  mutable r_pruned : int;  (* edges skipped by the sleep-set reduction *)
}

let prec_make () =
  {
    r_edges = [];
    r_terminals = Value.Tbl.create 16;
    r_invalid = Value.Tbl.create 8;
    r_stuck = None;
    r_crash = 0;
    r_truncation = None;
    r_claimed = 0;
    r_claimed_flushed = 0;
    r_pruned = 0;
  }

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
   canonical order (crash edges first, then steps, pid ascending), as
   [(pid_code, successor, child_mask)] with crash edges coded
   [-2 - pid].  Slept monotone edges are skipped entirely — no
   [Env.apply], no interning — and counted in [r.r_pruned].  Every
   generated decide edge failing validity is noted in [r.r_invalid],
   pruned or not; kept crash edges are counted in [r.r_crash].  With
   [ind = None] (more processes than a mask holds) every child mask is
   0, so from a 0 root mask nothing is ever pruned: this is then the
   unreduced successor relation. *)
let successors_with_sleep ~crashes ~ind config r node arrival =
  let n = Array.length config.procs in
  let acts = Array.make n None in
  for pid = 0 to n - 1 do
    if live node pid then
      acts.(pid) <- Some (Process.action config.procs.(pid) node.locals.(pid))
  done;
  (* may the pending steps [aq] and [a] be transposed at this state? *)
  let indep_step ind aq a =
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
    match ind with
    | None -> 0
    | Some ind ->
        let m = ref 0 in
        for q = 0 to n - 1 do
          if q <> pid && live node q then begin
            (match acts.(q) with
            | Some aq
              when (arrival land (1 lsl q) <> 0
                   || !earlier_steps land (1 lsl q) <> 0)
                   && (match a with
                      | None -> true
                      | Some a -> indep_step ind aq a) ->
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
      if live node pid then
        if arrival land (1 lsl (pid + crash_shift)) <> 0 then
          r.r_pruned <- r.r_pruned + 1
        else begin
          r.r_crash <- r.r_crash + 1;
          kept := (-2 - pid, crash node pid, child_mask pid None) :: !kept;
          earlier_crashes := !earlier_crashes lor (1 lsl pid)
        end
    done;
  for pid = 0 to n - 1 do
    match acts.(pid) with
    | None -> ()
    | Some a ->
        (match a with
        | Process.Decide v when not (decision_valid node ~pid v) ->
            Value.Tbl.replace r.r_invalid
              (Value.pair (Value.int pid) v)
              (pid, v)
        | _ -> ());
        let slept = arrival land (1 lsl pid) <> 0 in
        let monotone =
          match a with
          | Process.Decide _ -> true
          | Process.Invoke _ -> node.stepped land (1 lsl pid) = 0
        in
        if slept && monotone then r.r_pruned <- r.r_pruned + 1
        else begin
          let succ = step config node pid a in
          kept := (pid, succ, child_mask pid (Some a)) :: !kept;
          earlier_steps := !earlier_steps lor (1 lsl pid)
        end
  done;
  List.rev !kept

(* Metric names: ROADMAP's measurement substrate.  Totals accumulate in
   per-run records during the search and are flushed to the shared
   registry in batches and once per run. *)
module M = struct
  open Wfs_obs.Metrics

  let runs = Counter.make "explorer.runs"

  (* "explorer.states" is the process-wide states-explored counter:
     exposed as wfs_explorer_states_total.  The solver adds its schedule
     nodes here too, so a scrape of any engine shows live progress. *)
  let states = Counter.make "explorer.states"

  (* live DFS depth, set at the batched flushes; a finished run leaves
     no frontier, so [report] sets it back to 0 *)
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

(* Push this record's unreported claims to the global states counter and
   the calling domain's [pool.shard.states] series.  Called at batched
   tick points and once at the end of the record's search, so the sum
   over all records equals the exact state count with nothing
   double-counted. *)
let flush_claims r =
  let d = r.r_claimed - r.r_claimed_flushed in
  if d > 0 then begin
    Wfs_obs.Metrics.Counter.add M.states d;
    Pool.note_states d;
    r.r_claimed_flushed <- r.r_claimed
  end

(* Expand [node] under arrival mask [mask]: its kept successors as
   parallel arrays (pid codes, nodes, child masks), or [None] for a
   leaf.  A leaf is stuck — an unknown operation, or no successor at
   all — unless every successor was slept away: then it is covered, its
   outcomes reached through the representative paths. *)
let expand ~crashes ~indep config r node mask =
  let pruned0 = r.r_pruned in
  match successors_with_sleep ~crashes ~ind:indep config r node mask with
  | exception Object_spec.Unknown_operation { obj; op } ->
      r.r_stuck <-
        Some (-1, Fmt.str "unknown operation %a on %s" Op.pp op obj);
      None
  | [] ->
      if r.r_pruned = pruned0 then r.r_stuck <- Some (-1, "no successor");
      None
  | succs ->
      let m = List.length succs in
      let pids = Array.make m (-1) in
      let nodes = Array.make m node in
      let masks = Array.make m 0 in
      List.iteri
        (fun i (code, succ, cmask) ->
          pids.(i) <- code;
          nodes.(i) <- succ;
          masks.(i) <- cmask)
        succs;
      Some (pids, nodes, masks)

let terminal_key node =
  Value.pair
    (Value.list (Array.to_list (Array.map Value.of_option node.decided)))
    (Value.pair (Value.int node.stepped) (Value.int node.crashed))

type sight = Over_budget | Terminal | Fresh

(* The budget checks on a first sight at [depth]: [false], recording
   which budget ran out, when the run may claim no more states there. *)
let within_budget r ~visited ~max_states ~max_depth depth =
  let truncate cause =
    if r.r_truncation = None then r.r_truncation <- Some cause;
    false
  in
  if Atomic.get visited >= max_states then truncate Budget_states
  else if depth >= max_depth then truncate Budget_depth
  else true

(* The claim of a first-seen [node] within budget, [visited] counting
   the run's claimed states — counted, flushed live in batches of
   1024 — and [true] for a node to expand, [false] for a terminal,
   recorded and handed to [on_terminal]. *)
let claim r ~visited ~on_terminal node depth =
  Atomic.incr visited;
  r.r_claimed <- r.r_claimed + 1;
  if r.r_claimed land 1023 = 0 then begin
    flush_claims r;
    Wfs_obs.Metrics.Gauge.set M.frontier depth
  end;
  if is_terminal node then begin
    Value.Tbl.replace r.r_terminals (terminal_key node)
      {
        decisions = Array.copy node.decided;
        who_stepped = node.stepped;
        who_crashed = node.crashed;
      };
    on_terminal node;
    false
  end
  else true

(* First sight of [node] at [depth]: the budget checks, then the
   claim. *)
let admit r ~visited ~max_states ~max_depth ~on_terminal node depth =
  if not (within_budget r ~visited ~max_states ~max_depth depth) then
    Over_budget
  else if claim r ~visited ~on_terminal node depth then Fresh
  else Terminal

(* --- the walk: cycle detection with the longest-path DP fused in ---

   One iterative post-order DFS over interned ids serves both engines.
   A node is white until first seen, gray while its frame is on the
   stack, black once finished; meeting a gray node is a cycle.  When
   the child a frame is waiting on finishes, its bounds fold into the
   frame's [f_best] ([settle]), so the DP needs no second traversal
   and deep graphs cannot overflow the OCaml stack.

   [id_of] turns the opaque ['c] holding a frame's successors into ids
   one at a time, given the depth they are met at; it answers [-1] for
   a successor it refuses (over budget), which is then folded into
   nothing and keeps no id, colour or bounds slot.  What a first-seen
   node is comes from the caller's [first]: a leaf (zero bounds), or
   an inner node with its successors' pid codes and their ['c].  The
   sequential engine interns and expands there; the parallel engine's
   phase 2 reads its merged adjacency.

   Crash edges are coded [-2 - pid] in the pid arrays: [settle] adds
   the +1 step only when its pid argument matches a real process index,
   so a crash edge folds the child's bounds in verbatim — crashing is
   not a step of anyone. *)

type 'c visit = Leaf | Inner of int array * 'c

type 'c frame = {
  f_id : int;
  f_pids : int array;  (* successor pid codes, in canonical order *)
  f_kids : 'c;  (* the successors, in the same order *)
  mutable f_next : int;  (* next successor index to visit *)
  f_best : int array;  (* running per-process longest-path maxima *)
}

type walk = {
  w_cyclic : bool;
  w_root_bounds : int array;
  w_visits : int;  (* lookups, the root's included *)
  w_hits : int;  (* ...that met an already-seen (gray or black) node *)
  w_deepest : int;
  w_fused : int;  (* edges folded into the DP *)
}

let white = '\000'
let gray = '\001'
let black = '\002'

let walk ~n ~size_hint ~id_of ~first root =
  (* colors and bounds are indexed by id, grown on demand *)
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
  let cyclic = ref false and visits = ref 0 and hits = ref 0 in
  let deepest = ref 0 and fused = ref 0 in
  let stack = Stack.create () in
  (* fold a finished child's bounds into the frame waiting on it *)
  let settle child =
    if not (Stack.is_empty stack) then begin
      let f = Stack.top stack in
      incr fused;
      let pid = f.f_pids.(f.f_next - 1) and best = f.f_best in
      for p = 0 to n - 1 do
        let v = child.(p) + if p = pid then 1 else 0 in
        if v > best.(p) then best.(p) <- v
      done
    end
  in
  let visit kids i =
    let depth = Stack.length stack in
    if depth > !deepest then deepest := depth;
    incr visits;
    let id = id_of kids i depth in
    if id < 0 then ()
    else begin
      ensure id;
      let c = Bytes.get !colors id in
      if c = gray then begin
        incr hits;
        cyclic := true
      end
      else if c = black then begin
        incr hits;
        settle !bounds.(id)
      end
      else
        match first kids i id depth with
        | Leaf ->
            Bytes.set !colors id black;
            !bounds.(id) <- zeros;
            settle zeros
        | Inner (pids, kids) ->
            Bytes.set !colors id gray;
            Stack.push
              {
                f_id = id;
                f_pids = pids;
                f_kids = kids;
                f_next = 0;
                f_best = Array.make n 0;
              }
              stack
    end;
    id
  in
  let root_id = visit root 0 in
  while not (Stack.is_empty stack) do
    let f = Stack.top stack in
    if f.f_next < Array.length f.f_pids then begin
      f.f_next <- f.f_next + 1;
      ignore (visit f.f_kids (f.f_next - 1))
    end
    else begin
      ignore (Stack.pop stack);
      !bounds.(f.f_id) <- f.f_best;
      Bytes.set !colors f.f_id black;
      settle f.f_best
    end
  done;
  {
    w_cyclic = !cyclic;
    w_root_bounds = (if root_id < 0 then [||] else !bounds.(root_id));
    w_visits = !visits;
    w_hits = !hits;
    w_deepest = !deepest;
    w_fused = !fused;
  }

(* --- the result ---

   One builder for both engines: merge the records (terminals and
   invalid decides deduplicated and sorted by key, the first stuck
   report, a states budget before a depth budget), read the verdicts
   off the walk, and flush the run's metrics.  [hits] / [lookups] feed
   the dedup metrics. *)
let report ~states ~hits ~lookups (w : walk) recs =
  let sorted tbl_of =
    List.concat_map
      (fun r -> Value.Tbl.fold (fun k v acc -> (k, v) :: acc) (tbl_of r) [])
      recs
    |> List.sort_uniq (fun (k1, _) (k2, _) -> Value.compare k1 k2)
    |> List.map snd
  in
  let hit cause = List.exists (fun r -> r.r_truncation = Some cause) recs in
  let truncation =
    if hit Budget_states then Some Budget_states
    else if hit Budget_depth then Some Budget_depth
    else None
  in
  let stuck = List.find_map (fun r -> r.r_stuck) recs in
  let truncated = truncation <> None in
  let sum field = List.fold_left (fun acc r -> acc + field r) 0 recs in
  (* a parallel run's records were flushed by the domains that claimed
     their states; this catches the sequential record's remainder *)
  List.iter flush_claims recs;
  let open Wfs_obs.Metrics in
  Counter.incr M.runs;
  Gauge.set M.frontier 0;
  Counter.add M.dedup_hits hits;
  Counter.add M.dedup_lookups lookups;
  Fgauge.set M.dedup_hit_rate
    (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups);
  Gauge.set_max M.max_depth_seen w.w_deepest;
  (match truncation with
  | Some Budget_states -> Counter.incr M.truncated_states
  | Some Budget_depth -> Counter.incr M.truncated_depth
  | None -> ());
  Counter.add M.fused_edges w.w_fused;
  Counter.add M.crash_edges (sum (fun r -> r.r_crash));
  Counter.add M.por_pruned (sum (fun r -> r.r_pruned));
  Wfs_obs.Profile.instant ~cat:"explore"
    ~args:(fun () ->
      [
        ("states", Wfs_obs.Json.int states);
        ("max_depth", Wfs_obs.Json.int w.w_deepest);
        ("cyclic", Wfs_obs.Json.bool w.w_cyclic);
        ("truncated", Wfs_obs.Json.bool truncated);
      ])
    "explorer.done";
  {
    states;
    terminals = sorted (fun r -> r.r_terminals);
    cyclic = w.w_cyclic;
    stuck;
    truncated;
    truncation;
    invalid_decisions = sorted (fun r -> r.r_invalid);
    step_bounds =
      (if w.w_cyclic || truncated || stuck <> None then None
       else Some (Array.copy w.w_root_bounds));
  }

(* --- the sequential engine: discovery inside the walk --- *)

let explore_fast ~max_states ~max_depth ~crashes ~indep ~on_terminal config =
  (* small start, grown on demand: callers such as the randomized
     consensus check run thousands of explorations of a few hundred
     states each, where pre-sizing to the budget dominated *)
  let size_hint = max 16 (min max_states 256) in
  let tbl = Intern.Strings.create ~size_hint () in
  let r = prec_make () in
  let visited = Atomic.make 0 in
  (* a walk child is slot [i] of (successor nodes, arrival masks); the
     budget is decided before a new state is interned, so a truncated
     run keeps nothing of the states it refuses *)
  let id_of (nodes, _) i depth =
    let k = key nodes.(i) in
    match Intern.Strings.find tbl k with
    | -1 ->
        if within_budget r ~visited ~max_states ~max_depth depth then
          Intern.Strings.add tbl k
        else -1
    | id -> id
  in
  let first (nodes, masks) i _id depth =
    let node = nodes.(i) in
    if not (claim r ~visited ~on_terminal node depth) then Leaf
    else
      match expand ~crashes ~indep config r node masks.(i) with
      | None -> Leaf
      | Some (pids, nodes, masks) -> Inner (pids, (nodes, masks))
  in
  let w =
    walk ~n:(Array.length config.procs) ~size_hint ~id_of ~first
      ([| initial config |], [| 0 |])
  in
  let open Wfs_obs.Metrics in
  Counter.add M.intern_hits (Intern.Strings.hits tbl);
  Counter.add M.intern_lookups (Intern.Strings.lookups tbl);
  Gauge.set_max M.arena_size (Intern.Strings.size tbl);
  report ~states:(Atomic.get visited) ~hits:w.w_hits ~lookups:w.w_visits w
    [ r ]

(* --- the parallel engine: discovery first, then the same walk ---

   Reachability is parallelised; the verdict pass is not.

   Phase 1 (parallel): a short sequential BFS from the root grows a
   frontier of claimed-but-unexpanded nodes — disjoint top-level
   schedule prefixes — which become pool jobs.  Workers share exactly
   one structure, the lock-striped interner ([Intern.Sharded]): its
   claim bit makes each distinct state the property of whichever worker
   interned it first, so every node is expanded exactly once and the
   global state count is exact, schedule-independent, and equal to the
   sequential engine's.  Everything else a worker writes — the int
   adjacency of the nodes it expanded, terminals, invalid decides,
   crash-edge counts — goes into its own record.

   Phase 2 (sequential): cycle detection and the fused longest-path DP
   cannot be split across workers (a cycle, and a longest path, can
   thread through several workers' territories), but by then the
   expensive work — [successors_with_sleep], [Env.apply], hashing —
   is already done.  Phase 2 is the sequential engine's [walk] over the
   merged int adjacency: a few machine operations per edge, a small
   fraction of phase-1 cost.  Nodes with no recorded adjacency
   (terminals, stuck or covered leaves, and claimed-but-dropped nodes
   of truncated runs) are leaves with zero bounds.

   Determinism: on runs that complete within budget, [states],
   [terminals], [cyclic], [stuck = None], [invalid_decisions] and
   [step_bounds] are all schedule-independent and equal to the
   sequential engine's.  Budget truncation is the one racy edge: which
   states fall inside a just-exceeded budget depends on the schedule,
   so truncated parallel runs may differ marginally from sequential
   ones — conservatively, since a truncated run never claims
   wait-freedom.  [-j 1] bypasses this engine entirely. *)

module MP = struct
  open Wfs_obs.Metrics

  let runs = Counter.make "explorer.par.runs"
  let seeds = Counter.make "explorer.par.seeds"
  let domains = Gauge.make "explorer.par.domains"
end

let explore_par ~pool ~max_states ~max_depth ~crashes ~indep ~on_terminal
    config =
  let workers = Pool.size pool in
  let stbl =
    Intern.Sharded.create ~stripes:(max 61 (4 * workers))
      ~size_hint:(max 16 (min max_states 65536)) ()
  in
  let visited = Atomic.make 0 in
  (* A claim [(id, fresh)] on [node]: on first sight across all domains
     the claimer admits it and, unless it is a terminal or over budget,
     hands it to [enqueue] for expansion.  [mask] is the arrival sleep
     mask; the claiming arrival's mask is the one the eventual expansion
     uses (any valid mask preserves every verdict — see the sleep-set
     notes above). *)
  let consider r ~enqueue node mask depth (id, fresh) =
    if fresh then
      match
        admit r ~visited ~max_states ~max_depth ~on_terminal node depth
      with
      | Fresh -> enqueue (node, id, mask, depth)
      | Over_budget | Terminal -> ()
  in
  (* expand a claimed node, claiming all its successors in one batched
     pass over the interner's stripes — one lock round-trip per stripe
     instead of one per edge — and record its adjacency; edges to
     already-claimed nodes are what phase 2's cycle detection feeds on *)
  let expand_claimed r ~enqueue (node, id, mask, depth) =
    match expand ~crashes ~indep config r node mask with
    | None -> ()
    | Some (pids, nodes, masks) ->
        let claims =
          Intern.Sharded.intern_batch stbl (Array.map key nodes)
        in
        Array.iteri
          (fun i claim ->
            consider r ~enqueue nodes.(i) masks.(i) (depth + 1) claim)
          claims;
        r.r_edges <- (id, pids, Array.map fst claims) :: r.r_edges
  in
  (* Seed BFS: expand breadth-first until the frontier is wide enough to
     feed every worker a couple of seeds.  Seeds are deliberately few
     and fat — per-seed job overhead (record allocation, profile spans,
     queue churn) was measurable against small explorations at low
     worker counts, and the pool's shared job cursor hands the next
     seed to whichever domain frees up first, which smooths the
     residual imbalance between fat subtrees.  The expansion cap keeps
     a stubbornly narrow frontier from dragging the whole exploration
     into this sequential phase. *)
  let rec0 = prec_make () in
  let queue = Queue.create () in
  let root_id =
    Wfs_obs.Profile.span ~cat:"explore" "explore.seeds" (fun () ->
        let enqueue x = Queue.add x queue in
        let root = initial config in
        let claim = (Intern.Sharded.intern_batch stbl [| key root |]).(0) in
        consider rec0 ~enqueue root 0 0 claim;
        let target = 2 * workers in
        let budget = ref (8 * target) in
        while
          (not (Queue.is_empty queue))
          && Queue.length queue < target
          && !budget > 0
        do
          decr budget;
          expand_claimed rec0 ~enqueue (Queue.pop queue)
        done;
        fst claim)
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
            let r = prec_make () in
            let stack = Stack.create () in
            let enqueue x = Stack.push x stack in
            enqueue seed;
            while not (Stack.is_empty stack) do
              expand_claimed r ~enqueue (Stack.pop stack)
            done;
            flush_claims r;
            r))
      (Array.mapi (fun i s -> (i, s)) seeds)
  in
  let all_recs = rec0 :: Array.to_list recs in
  (* Merge the adjacency.  Each expanded node's was recorded by exactly
     one record, so the writes never collide on an index. *)
  let sz = Intern.Sharded.size stbl in
  let adj_pids = Array.make sz [||] in
  let adj_dsts = Array.make sz [||] in
  Wfs_obs.Profile.span ~cat:"explore" "explore.merge" (fun () ->
      List.iter
        (fun r ->
          List.iter
            (fun (id, pids, dsts) ->
              adj_pids.(id) <- pids;
              adj_dsts.(id) <- dsts)
            r.r_edges)
        all_recs);
  (* Phase 2: a walk child is slot [i] of a destination-id array. *)
  let w =
    Wfs_obs.Profile.span ~cat:"explore" "explore.phase2" (fun () ->
        walk ~n:(Array.length config.procs) ~size_hint:sz
          ~id_of:(fun dsts i _ -> dsts.(i))
          ~first:(fun _ _ id _ ->
            if Array.length adj_pids.(id) = 0 then Leaf
            else Inner (adj_pids.(id), adj_dsts.(id)))
          [| root_id |])
  in
  Intern.Sharded.flush stbl;
  let hits = Intern.Sharded.hits stbl in
  let lookups = Intern.Sharded.lookups stbl in
  let contended = Intern.Sharded.contention stbl in
  if Wfs_obs.Profile.enabled () then
    Wfs_obs.Profile.counter "explorer.intern.contention"
      [ ("contended", float_of_int contended) ];
  let open Wfs_obs.Metrics in
  Counter.add M.intern_contention contended;
  Counter.add M.intern_hits hits;
  Counter.add M.intern_lookups lookups;
  Gauge.set_max M.arena_size sz;
  Counter.incr MP.runs;
  Counter.add MP.seeds (Array.length seeds);
  Gauge.set_max MP.domains workers;
  report ~states:(Atomic.get visited) ~hits ~lookups w all_recs

let explore ?(max_states = 2_000_000) ?(max_depth = 10_000) ?(crashes = 0)
    ?pool ?(on_terminal = ignore) config =
  if crashes < 0 then invalid_arg "Explorer.explore: crashes < 0";
  if max_states < 0 then
    invalid_arg
      (Fmt.str "Explorer.explore: max_states must be >= 0 (got %d)" max_states);
  if max_depth < 0 then
    invalid_arg
      (Fmt.str "Explorer.explore: max_depth must be >= 0 (got %d)" max_depth);
  (* The reduction composes with crashes and the parallel engine.
     Masks pack step and crash bits into one int, which caps the
     process count. *)
  let indep =
    if Array.length config.procs <= crash_shift then
      Some
        (Wfs_obs.Profile.span ~cat:"explore" "explore.independence"
           (fun () -> Independence.of_env config.env))
    else None
  in
  match pool with
  | Some p when Pool.size p > 1 ->
      Wfs_obs.Profile.span ~cat:"explore" "explore.par" (fun () ->
          explore_par ~pool:p ~max_states ~max_depth ~crashes ~indep
            ~on_terminal config)
  | _ ->
      Wfs_obs.Profile.span ~cat:"explore" "explore.dfs" (fun () ->
          explore_fast ~max_states ~max_depth ~crashes ~indep ~on_terminal
            config)

let wait_free stats =
  (not stats.cyclic) && (not stats.truncated) && stats.stuck = None

(* One verdict for every check run over an exploration's terminals. *)
type verdict = {
  ok : bool;
  states : int;
  terminals : int;
  wait_free : bool;
  failure : string option;
}

let verdict ~states ~terminals ~wait_free ~failure =
  { ok = failure = None && wait_free; states; terminals; wait_free; failure }

let check ?max_states config ~terminal =
  let terminals = ref 0 and failure = ref None in
  let on_terminal node =
    incr terminals;
    match terminal node with
    | Error e when !failure = None -> failure := Some e
    | Ok () | Error _ -> ()
  in
  let (stats : stats) = explore ?max_states ~on_terminal config in
  verdict ~states:stats.states ~terminals:!terminals
    ~wait_free:(wait_free stats) ~failure:!failure

let all verdicts =
  List.fold_left
    (fun a b ->
      verdict ~states:(a.states + b.states)
        ~terminals:(a.terminals + b.terminals)
        ~wait_free:(a.wait_free && b.wait_free)
        ~failure:(if a.failure = None then b.failure else a.failure))
    (verdict ~states:0 ~terminals:0 ~wait_free:true ~failure:None)
    verdicts
