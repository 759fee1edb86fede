(* Bounded-protocol consensus solvability: strategy synthesis against the
   adversarial scheduler.

   Question: for a given shared-object environment, n processes and a
   step bound d, does there exist a wait-free consensus protocol in
   which every process decides after at most d operations?

   A protocol is exactly a *strategy*: a function from (process, local
   view) to the next action, where the local view is the sequence of
   responses the process has received — all a deterministic process can
   ever condition on.  The search is therefore an exists/forall game:

   - existential: the protocol picks an action for each unassigned
     (process, view) pair it encounters;
   - universal: the scheduler picks which undecided process moves.

   We explore the obligation tree depth-first in continuation-passing
   style with chronological backtracking over the partial strategy — the
   same shape as a QBF search.  [Unsolvable] is a machine-checked proof
   that NO protocol in the bounded class exists: the finite analogue of
   Theorem 2 / Theorem 11; [Solvable] carries the synthesized protocol.

   The paper's correctness conditions are enforced exactly as in
   [Wfs_consensus.Protocol]: agreement along every schedule, validity at
   every decide event (the named process must have stepped, or be the
   decider), and decision within the bound (wait-freedom is built into
   the bounded-depth game).

   On top of the chronological search sit two QBF-style learning layers
   (the bare search survives as the test oracle, test/solver_oracle.ml):

   - a TRANSPOSITION TABLE over canonicalized positions.  A position is
     the full forall-node game state — interned environment state, each
     undecided process's σ-key (= its view) and REMAINING step budget
     (so entries transpose across different total depths), the decision
     vector and the stepped mask — flattened to a small int array and
     hash-consed to a dense id ([Intern.Ints]).  Because σ is shared
     and mutable, a cached verdict is only valid relative to the σ
     entries its subproof consulted: each entry carries that σ-footprint
     and replays only when the current σ agrees with it ([Tt], which
     documents the full soundness argument — pure refutations vs. clean
     successes, a-fortiori dropping of unassigned reads, the exactness
     condition that makes success replay commute with later
     continuation failures, and sleep-mask subsumption).

   - NO-GOOD driven backjumping.  A propagating [false] carries the
     conflict that caused it (footprint + the serials of the choice
     frames that formed the refuted structure); an existential choice
     point outside that set whose σ-support is still intact skips its
     remaining candidates, because re-exploring them provably re-derives
     the same refutation. *)

open Wfs_spec
open Wfs_sim

type action = Do of string * Op.t | Decide of int

type instance = {
  env : Env.t;
  n : int;
  depth : int;
  candidates : int -> (string * Op.t) list;
      (** operation menu per process, honouring per-process ownership *)
}

type assignment = { pid : int; view : Value.t; chosen : action }

type verdict =
  | Solvable of assignment list
  | Unsolvable
  | Out_of_budget of { nodes : int }

(* Persistent game state.  Each scheduler branch must be explored from
   the same state, while the partial strategy is shared globally across
   branches — so the state is copied on update and passed explicitly,
   and only the strategy table is mutated (with undo on backtrack).

   Each process's σ-key for its current view is computed once, when the
   view is built, and carried in [skeys] — σ lookups (the memo probe in
   [step], the dominance peeks of the sleep-set reduction) then skip
   re-hashing the view.  Keys are pure functions of (pid, view), so the
   caching is semantically invisible.

   [env_id] and [chain] exist for the transposition layer: [env_id] is
   the interned [Env.encode] of [env_state], kept incrementally so
   position keys cost no re-encoding; [chain] lists the serials of the
   choice frames whose candidates formed this state — for σ-hit moves,
   the serial of the frame that wrote the hit entry — which is what
   lets a conflict tell "flipping this choice reshapes the refuted
   structure" apart from "this choice is unrelated, skip it" (see
   [Tt]). *)
type state = {
  views : Value.t array;  (* response history per process, latest first *)
  skeys : int array;  (* σ-key of each process's current view *)
  steps : int array;  (* operations taken per process *)
  decisions : int array;  (* decision per process, -1 if undecided *)
  env_state : Env.state;
  stepped : int;
  undecided : int;
  env_id : int;
  chain : int list;
}

let set arr i v =
  let arr' = Array.copy arr in
  arr'.(i) <- v;
  arr'

let of_spec ?(extra_candidates = []) ~n ~depth (spec : Object_spec.t) =
  if n < 1 then invalid_arg "Solver.of_spec: n < 1";
  if depth < 0 then invalid_arg "Solver.of_spec: depth < 0";
  let obj = spec.Object_spec.name in
  {
    env = Env.make [ (obj, spec) ];
    n;
    depth;
    candidates =
      (fun pid ->
        List.map (fun op -> (obj, op)) (Object_spec.menu_for spec pid)
        @ extra_candidates);
  }

exception Budget

(* Strategy-table metrics, mirroring the explorer's interning
   instrumentation. *)
module M = struct
  open Wfs_obs.Metrics

  let runs = Counter.make "solver.runs"
  let nodes_total = Counter.make "solver.nodes"
  let view_intern_hits = Counter.make "solver.view_intern.hits"
  let view_intern_lookups = Counter.make "solver.view_intern.lookups"
  let view_arena_size = Gauge.make "solver.view_intern.arena_size"

  (* σ-table memoization: a hit replays an already-chosen action, a miss
     opens an existential choice point *)
  let memo_hits = Counter.make "solver.memo.hits"
  let memo_misses = Counter.make "solver.memo.misses"

  (* game-tree pruning: scheduler branches skipped because they are
     independence-dominated by an already-explored sibling (sleep
     sets over the forall player's choices) *)
  let cutoff_sleep = Counter.make "solver.cutoff.sleep"

  (* transposition layer: a hit replays a cached subgame verdict whose
     σ-footprint still holds; a footprint_reject found entries at the
     position but none valid under the current σ; a backjump skipped
     the remaining candidates of a choice point a conflict proved
     irrelevant *)
  let tt_hits = Counter.make "solver.tt.hits"
  let tt_misses = Counter.make "solver.tt.misses"
  let tt_rejects = Counter.make "solver.tt.footprint_rejects"
  let tt_backjumps = Counter.make "solver.tt.backjumps"

  (* the process-wide states-explored counter shared with the explorer
     (same registry name, hence the same instrument): solver schedule
     nodes are the states of its search tree, so census/hierarchy runs
     report live progress through the same series *)
  let states = Counter.make "explorer.states"
end

(* Shared solver context: the view/env/position intern arenas and the
   transposition store, shareable across solves of the same arity —
   the census threads one context through every cell of an
   (object, n) row, so later cells replay subgames classified by
   earlier ones (positions encode REMAINING depth, so entries
   transpose across depth bounds; σ-footprints keep reuse sound even
   though every solve grows a fresh σ).  σ-keys must be stable across
   solves for recorded footprints to keep their meaning, which is
   exactly what sharing the view interner provides. *)
module Ctx = struct
  type t = {
    n : int;
    views : Intern.t;
    envs : Intern.t;
    positions : Intern.Ints.t;
    store : (int, action) Tt.store;
    mutable vh_flushed : int;
    mutable vl_flushed : int;
  }

  let create ~n () =
    {
      n;
      views = Intern.create ~size_hint:4096 ();
      envs = Intern.create ~size_hint:512 ();
      positions = Intern.Ints.create ~size_hint:8192 ();
      store = Tt.create ();
      vh_flushed = 0;
      vl_flushed = 0;
    }

  let tt_entries t = Tt.entries t.store
end

(* Canonical position key: [env_id; stepped; decisions; then for each
   UNDECIDED process its σ-key and remaining step budget].  Decided
   processes' views and step counts are dead state — nothing in the
   subgame ever reads them — so dropping them canonicalizes more
   positions together.  Remaining (not consumed) steps make entries
   depth-transposable: the subgame below a position depends only on how
   many operations each process may still take. *)
let position_key ~depth ~n positions st =
  let buf = Array.make (2 + n + (2 * st.undecided)) 0 in
  buf.(0) <- st.env_id;
  buf.(1) <- st.stepped;
  let j = ref (2 + n) in
  for pid = 0 to n - 1 do
    buf.(2 + pid) <- st.decisions.(pid);
    if st.decisions.(pid) < 0 then begin
      buf.(!j) <- st.skeys.(pid);
      buf.(!j + 1) <- depth - st.steps.(pid);
      j := !j + 2
    end
  done;
  Intern.Ints.intern positions buf

(* The strategy table σ maps (pid, local view) to the chosen action.
   Views are response lists that deepen with every operation, so σ
   interns views to dense ids ([Wfs_sim.Intern], full-depth hashing)
   and is keyed by the single int [view_id * n + pid]. *)
let search ~max_nodes ~indep ~(ctx : Ctx.t) inst =
  let n = inst.n in
  let views = ctx.Ctx.views in
  let sigma : (int, action) Hashtbl.t = Hashtbl.create 1024 in
  let sigma_key pid view = (Intern.intern views view * n) + pid in
  let sigma_find k = Hashtbl.find_opt sigma k in
  let env_id env_state = Intern.intern ctx.Ctx.envs (Env.encode env_state) in
  let nodes = ref 0 in
  let memo_h = ref 0 and memo_m = ref 0 in
  let sleep_cut = ref 0 in
  let tt_h = ref 0 and tt_m = ref 0 and tt_r = ref 0 and tt_b = ref 0 in
  (* live flush, batched: all counters below are plain refs on the
     search path; every 8192 nodes the deltas go to the registry (and
     the running pool member's shard series), so a mid-run scrape sees
     progress at a cost of one masked test per node *)
  let nodes_flushed = ref 0 and memo_h_flushed = ref 0
  and memo_m_flushed = ref 0 and sleep_cut_flushed = ref 0
  and tt_h_flushed = ref 0 and tt_m_flushed = ref 0
  and tt_r_flushed = ref 0 and tt_b_flushed = ref 0 in
  let live_flush () =
    let d = !nodes - !nodes_flushed in
    let open Wfs_obs.Metrics in
    Counter.add M.nodes_total d;
    Counter.add M.states d;
    Pool.note_states d;
    Counter.add M.memo_hits (!memo_h - !memo_h_flushed);
    Counter.add M.memo_misses (!memo_m - !memo_m_flushed);
    Counter.add M.cutoff_sleep (!sleep_cut - !sleep_cut_flushed);
    Counter.add M.tt_hits (!tt_h - !tt_h_flushed);
    Counter.add M.tt_misses (!tt_m - !tt_m_flushed);
    Counter.add M.tt_rejects (!tt_r - !tt_r_flushed);
    Counter.add M.tt_backjumps (!tt_b - !tt_b_flushed);
    nodes_flushed := !nodes;
    memo_h_flushed := !memo_h;
    memo_m_flushed := !memo_m;
    sleep_cut_flushed := !sleep_cut;
    tt_h_flushed := !tt_h;
    tt_m_flushed := !tt_m;
    tt_r_flushed := !tt_r;
    tt_b_flushed := !tt_b
  in
  (* Transposition bookkeeping, all per-solve: the footprint-frame
     stack mirroring the open subproofs, the conflict carried by a
     propagating [false], a serial supply for choice frames, and the
     serial of the live frame that wrote each currently-assigned σ-key
     (hit moves extend their child's [chain] with it). *)
  let stack : (int, action) Tt.frame list ref = ref [] in
  let conflict : (int, action) Tt.conflict option ref = ref None in
  let serial = ref 0 in
  let writer : (int, int) Hashtbl.t = Hashtbl.create 512 in
  let log_read key seen =
    match !stack with fr :: _ -> Tt.log_read fr key seen | [] -> ()
  in
  let env0 = Env.init inst.env in
  let initial =
    {
      views = Array.make inst.n (Value.list []);
      skeys = Array.init inst.n (fun pid -> sigma_key pid (Value.list []));
      steps = Array.make inst.n 0;
      decisions = Array.make inst.n (-1);
      env_state = env0;
      stepped = 0;
      undecided = inst.n;
      env_id = env_id env0;
      chain = [];
    }
  in
  let decide_candidates = List.init inst.n (fun j -> Decide j) in
  let agreement_ok st =
    let d0 = st.decisions.(0) in
    Array.for_all (fun d -> d = d0) st.decisions
  in
  (* any decision already output along the current schedule *)
  let pinned st =
    let rec go i =
      if i >= inst.n then None
      else if st.decisions.(i) >= 0 then Some st.decisions.(i)
      else go (i + 1)
    in
    go 0
  in
  (* A position- (and candidate-)determined refutation: no σ-support at
     all, so the conflict footprint is empty and its chain is the full
     derivation of the refuted structure, including the choice that
     produced the failing action. *)
  let refuted chain =
    conflict := Some { Tt.c_fp = Some [||]; c_chain = chain };
    false
  in
  (* [schedules st sleep k]: every schedule from [st] succeeds under the
     current strategy (extending it existentially where unassigned), and
     then the remaining obligations [k] hold.

     [sleep] is a bitmask of undecided processes whose next branch is
     *dominated*: the process's σ-assigned action is independent of
     every move taken since the ancestor node at which its branch was
     explored, so any schedule moving it here is a transposition of an
     already-verified sibling schedule — same joint states, same views,
     same σ lookups, same game value.  Skipping it is the sleep-set
     reduction over the universal player's choices. *)
  let rec schedules st sleep (k : unit -> bool) : bool =
    incr nodes;
    if !nodes land 8191 = 0 then live_flush ();
    if !nodes > max_nodes then raise Budget;
    if st.undecided = 0 then begin
      if agreement_ok st then k ()
      else begin
        (* terminal disagreement is position-determined *)
        conflict := Some { Tt.c_fp = Some [||]; c_chain = st.chain };
        false
      end
    end
    else
      let pos = position_key ~depth:inst.depth ~n ctx.Ctx.positions st in
      match Tt.lookup ctx.Ctx.store ~find:sigma_find ~pos ~mask:sleep with
      | Tt.Replay e ->
          incr tt_h;
          (* the replayed verdict depends on these σ values: they
             join the enclosing subproof's footprint *)
          Array.iter (fun (fk, fv) -> log_read fk fv) e.Tt.e_fp;
          if e.Tt.e_true then k ()
          else begin
            conflict :=
              Some { Tt.c_fp = Some e.Tt.e_fp; c_chain = st.chain };
            false
          end
      | Tt.Miss rejected ->
          incr tt_m;
          tt_r := !tt_r + rejected;
          let fr = Tt.frame () in
          stack := fr :: !stack;
          let kran = ref 0 in
          let ok =
            explore st sleep (fun () ->
                incr kran;
                k ())
          in
          stack := List.tl !stack;
          (match !stack with
          | parent :: _ -> Tt.merge ~child:fr ~parent
          | [] -> ());
          (if (not ok) && !kran = 0 then begin
             (* pure refutation: [k] never ran, so the false is a
                self-contained subgame impossibility — unless the
                frame is tainted/overflowed, in which case the
                inner conflict (still sound, possibly skip-derived)
                keeps propagating as-is *)
             match Tt.refutation_fp fr with
             | Some e_fp ->
                 Tt.record ctx.Ctx.store ~pos
                   { Tt.e_true = false; e_mask = sleep; e_fp };
                 conflict :=
                   Some { Tt.c_fp = Some e_fp; c_chain = st.chain }
             | None -> ()
           end
           else if ok && !kran = 1 then
             (* clean success: the subproof completed every schedule
                and handed off exactly once *)
             match Tt.success_fp ~find:sigma_find fr with
             | Some e_fp ->
                 Tt.record ctx.Ctx.store ~pos
                   { Tt.e_true = true; e_mask = sleep; e_fp }
             | None -> ());
          ok
  and explore st sleep k =
    let rec obligations pid =
      if pid >= inst.n then k ()
      else if st.decisions.(pid) >= 0 then obligations (pid + 1)
      else if sleep land (1 lsl pid) <> 0 then begin
        incr sleep_cut;
        obligations (pid + 1)
      end
      else step st sleep pid (fun () -> obligations (pid + 1))
    in
    obligations 0
  (* the σ-assigned action of [pid] at its current view, if any — used
     only to decide dominance, so it must not perturb the memo-hit
     accounting (it does join the footprint: sleep decisions are
     σ-dependent) *)
  and peek st pid =
    let r = sigma_find st.skeys.(pid) in
    log_read st.skeys.(pid) r;
    r
  (* May the actions [aq] (by [q]) and [a] (by [pid]) be transposed at
     [st]?  Do/Do pairs consult the semantic diamond; a Decide naming a
     process that has not yet stepped is dependent on that process's
     moves, because transposing them flips the decide's validity.
     [stepped] bits only grow along a schedule, so independence here is
     stable at every descendant — the monotonicity sleep sets need. *)
  and indep_action st q aq pid a =
    let unstepped j = st.stepped land (1 lsl j) = 0 in
    let decide_indep decider j mover =
      not (j <> decider && j = mover && unstepped j)
    in
    match (aq, a) with
    | Do (o1, op1), Do (o2, op2) ->
        Independence.independent_at indep st.env_state o1 op1 o2 op2
    | Decide j, Do _ -> decide_indep q j pid
    | Do _, Decide j -> decide_indep pid j q
    | Decide j, Decide j' -> decide_indep q j pid && decide_indep pid j' q
  (* Sleep mask for the subtree entered by [pid] doing [a]: an
     undecided [q] is dominated there when its branch was already
     covered at this node (explored as an earlier sibling, or itself
     asleep on arrival), its next action is σ-determined, and that
     action is independent of [a].  σ entries consulted here were
     necessarily set at or above this node's choice points, so they
     survive for the lifetime of the subtree. *)
  and child_sleep st sleep pid a =
    let m = ref 0 in
    for q = 0 to inst.n - 1 do
      if
        q <> pid
        && st.decisions.(q) < 0
        && (sleep land (1 lsl q) <> 0 || q < pid)
      then
        match peek st q with
        | Some aq when indep_action st q aq pid a -> m := !m lor (1 lsl q)
        | _ -> ()
    done;
    !m
  and step st sleep pid k =
    let skey = st.skeys.(pid) in
    match sigma_find skey with
    | Some a ->
        incr memo_h;
        log_read skey (Some a);
        (* the move is σ-determined: the state about to be built hangs
           off the choice frame that wrote this entry *)
        let chain' =
          match Hashtbl.find_opt writer skey with
          | Some ws -> ws :: st.chain
          | None -> st.chain
        in
        apply st sleep pid a chain' k
    | None ->
        incr memo_m;
        let ops_allowed = st.steps.(pid) < inst.depth in
        let cands =
          (if ops_allowed then
             List.map (fun (obj, op) -> Do (obj, op)) (inst.candidates pid)
           else [])
          @ decide_candidates
        in
        (* the choice point observed σ(skey) unassigned: that is a
           constraint of the ENCLOSING subproof (logged before the
           step frame opens) *)
        log_read skey None;
        let fr = Tt.frame () in
        stack := fr :: !stack;
        let sn = !serial in
        incr serial;
        let chain' = sn :: st.chain in
        (* purity per candidate: a candidate's [false] is a
           self-contained subgame refutation exactly when the
           step's continuation never ran during it — if [k] ran,
           the failure involved obligations beyond this subgame
           and the exhaustion below is context-dependent *)
        let kran = ref 0 in
        let kw () =
          incr kran;
          k ()
        in
        let all_pure = ref true in
        let rec try_cands = function
          | [] ->
              (* natural exhaustion (conflict is clear here: every
                 continue-branch below resets it).  If every
                 candidate failed purely within its own subgame and
                 the frame is clean, that is a position-determined
                 no-good: (this position, this mover) exhausts
                 under the frame's σ-support. *)
              (if !all_pure then
                 match Tt.refutation_fp fr with
                 | Some _ as fp ->
                     conflict := Some { Tt.c_fp = fp; c_chain = st.chain }
                 | None -> ());
              false
          | a :: rest -> (
              Hashtbl.replace sigma skey a;
              Tt.log_write fr skey;
              Hashtbl.replace writer skey sn;
              let kb = !kran in
              if apply st sleep pid a chain' kw then true
              else begin
                Hashtbl.remove sigma skey;
                if !kran > kb then all_pure := false;
                match !conflict with
                | Some { Tt.c_fp = Some fp; c_chain }
                  when not (List.mem sn c_chain) ->
                    (* this choice does not form the refuted
                       structure; if its σ-support is intact, any
                       completed search through the remaining
                       candidates would re-demand and re-derive the
                       same refutation — backjump past them,
                       propagating the conflict unchanged (its
                       global argument does not depend on this
                       frame).  The skip proves global failure
                       only, so the subproof is tainted against
                       refutation caching. *)
                    if Tt.fp_valid ~find:sigma_find fp then begin
                      incr tt_b;
                      Tt.taint fr;
                      false
                    end
                    else begin
                      conflict := None;
                      try_cands rest
                    end
                | Some _ | None ->
                    (* our choice formed the refuted structure, or
                       the support is unknown/invalidated: flipping
                       the candidate genuinely reshapes the search
                       — explore on *)
                    conflict := None;
                    try_cands rest
              end)
        in
        let ok = try_cands cands in
        stack := List.tl !stack;
        (match !stack with
        | parent :: _ -> Tt.merge ~child:fr ~parent
        | [] -> ());
        ok
  and apply st sleep pid a chain k =
    match a with
    | Decide j ->
        (* validity: j must have stepped, or be the decider *)
        if j <> pid && st.stepped land (1 lsl j) = 0 then refuted chain
        else if
          (* a decision conflicting with one already output fails
             here, not at the terminal agreement check *)
          match pinned st with Some v -> v <> j | None -> false
        then refuted chain
        else
          schedules
            {
              st with
              decisions = set st.decisions pid j;
              undecided = st.undecided - 1;
              stepped = st.stepped lor (1 lsl pid);
              chain;
            }
            (child_sleep st sleep pid a)
            k
    | Do (obj, op) -> (
        if st.steps.(pid) >= inst.depth then refuted chain
        else
          match Env.apply inst.env st.env_state obj op with
          | exception Object_spec.Unknown_operation _ -> refuted chain
          | env_state, res ->
              let view' = Value.list (res :: Value.as_list st.views.(pid)) in
              schedules
                {
                  views = set st.views pid view';
                  skeys = set st.skeys pid (sigma_key pid view');
                  steps = set st.steps pid (st.steps.(pid) + 1);
                  decisions = st.decisions;
                  env_state;
                  stepped = st.stepped lor (1 lsl pid);
                  undecided = st.undecided;
                  env_id = env_id env_state;
                  chain;
                }
                (child_sleep st sleep pid a)
                k)
  in
  let flush_view_metrics () =
    let open Wfs_obs.Metrics in
    (* with a shared context the interner outlives the solve: flush
       deltas since the last flush, not cumulative totals *)
    let hb = ctx.Ctx.vh_flushed and lb = ctx.Ctx.vl_flushed in
    ctx.Ctx.vh_flushed <- Intern.hits views;
    ctx.Ctx.vl_flushed <- Intern.lookups views;
    Counter.add M.view_intern_hits (Intern.hits views - hb);
    Counter.add M.view_intern_lookups (Intern.lookups views - lb);
    Gauge.set_max M.view_arena_size (Intern.size views)
  in
  Fun.protect ~finally:(fun () ->
      Wfs_obs.Metrics.Counter.incr M.runs;
      live_flush ();
      flush_view_metrics ())
  @@ fun () ->
  let verdict =
    match schedules initial 0 (fun () -> true) with
    | true ->
        Solvable
          (List.sort
             (fun a b ->
               match Int.compare a.pid b.pid with
               | 0 -> Value.compare a.view b.view
               | c -> c)
             (Hashtbl.fold
                (fun k chosen acc ->
                  { pid = k mod n; view = Intern.value views (k / n); chosen }
                  :: acc)
                sigma []))
    | false -> Unsolvable
    | exception Budget -> Out_of_budget { nodes = !nodes }
  in
  (verdict, !nodes)

let solve_with_stats ?(max_nodes = 20_000_000) ?ctx inst =
  if max_nodes < 0 then
    invalid_arg
      (Fmt.str "Solver.solve: max_nodes must be >= 0 (got %d)" max_nodes);
  Wfs_obs.Profile.span ~cat:"solver"
    ~args:(fun () -> [ ("n", Wfs_obs.Json.int inst.n) ])
    "solver.solve"
    (fun () ->
      let indep =
        Wfs_obs.Profile.span ~cat:"solver" "solver.independence" (fun () ->
            Independence.of_env inst.env)
      in
      let ctx =
        match ctx with
        | Some c ->
            if c.Ctx.n <> inst.n then
              invalid_arg
                (Fmt.str
                   "Solver.solve: shared ctx built for n=%d, instance has \
                    n=%d"
                   c.Ctx.n inst.n);
            c
        | None -> Ctx.create ~n:inst.n ()
      in
      search ~max_nodes ~indep ~ctx inst)

let solve ?max_nodes ?ctx inst = fst (solve_with_stats ?max_nodes ?ctx inst)

let pp_action ppf = function
  | Do (obj, op) -> Fmt.pf ppf "%s.%a" obj Op.pp op
  | Decide j -> Fmt.pf ppf "decide P%d" j

let pp_assignment ppf a =
  Fmt.pf ppf "P%d %a -> %a" a.pid Value.pp a.view pp_action a.chosen

let pp_verdict ppf = function
  | Solvable strategy ->
      Fmt.pf ppf "@[<v 2>SOLVABLE:@ %a@]"
        Fmt.(list ~sep:cut pp_assignment)
        strategy
  | Unsolvable -> Fmt.string ppf "UNSOLVABLE (no bounded protocol exists)"
  | Out_of_budget { nodes } -> Fmt.pf ppf "OUT OF BUDGET after %d nodes" nodes
