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
     the same refutation.

   The search and both layers run on dense ints.  σ is an array of
   action codes indexed by σ-key [view_id * n + pid]; actions are coded
   once per context ([Ctx]); and the context memoizes each
   (environment, action) move, each (σ-key, result) view extension and
   each Do/Do independence verdict.  [Env.apply], [Env.encode], view
   interning and the semantic diamond thus run once per context and
   key, not once per node, and a node hashes no [Value.t]. *)

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

   Everything in it is a dense int.  Each process's view is carried
   only as its σ-key [view_id * n + pid] — views are response lists
   that deepen with every operation, interned to dense ids by the
   context, and the key of a view's successor is memoized per
   (σ-key, result id), so a move builds no view at all once its
   successor is known.  [env_id] is the interned environment state:
   moves are looked up in the context's transition memo by
   (env_id, action code), so position keys and moves cost no
   re-encoding.  [chain] lists the serials of the choice frames whose
   candidates formed this state — for σ-hit moves, the serial of the
   frame that wrote the hit entry — which is what lets a conflict tell
   "flipping this choice reshapes the refuted structure" apart from
   "this choice is unrelated, skip it" (see [Tt]). *)
type state = {
  skeys : int array;  (* σ-key of each process's current view *)
  steps : int array;  (* operations taken per process *)
  decisions : int array;  (* decision per process, -1 if undecided *)
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

(* [grow arr len fill]: [arr] if it already holds [len] slots, else a
   copy at least twice as long, new slots [fill]. *)
let grow arr len fill =
  let cap = Array.length arr in
  if len <= cap then arr
  else begin
    let arr' = Array.make (max len (2 * cap)) fill in
    Array.blit arr 0 arr' 0 cap;
    arr'
  end

(* Int keys under a multiplicative mix: the packed (σ-key, result)
   pairs of the view memo differ mostly in their high bits. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x2545F4914F6CDD1D) lsr 17
end)

(* Shared solver context: the intern arenas, memo tables, strategy
   table and transposition store of ONE object, shareable across
   solves of the same arity — the census threads one context through
   every cell of an (object, n) row, so later cells replay subgames
   classified by earlier ones (positions encode REMAINING depth, so
   entries transpose across depth bounds; σ-footprints keep reuse
   sound even though every solve grows a fresh σ).  σ-keys and action
   codes must be stable across solves for recorded footprints to keep
   their meaning, which is what sharing the view interner and the
   action table provides.

   A context is bound to an object by its first solve: the objects'
   names and menus and each process's candidate list.  Initial states
   may differ between solves (the census tries several); anything else
   raises [Invalid_argument], because the action codes, the
   transition memo and the recorded footprints all speak about that
   one object. *)
module Ctx = struct
  (* per object: its name, type name and menu; per pid: its candidates *)
  type binding =
    (string * string * Op.t list) list * (string * Op.t) list array

  type game = {
    binding : binding;
    actions : action array;
        (* code -> action: Do codes in [0, ndo), then Decide j at ndo + j *)
    ndo : int;
    cands : int list array;
        (* per pid: its Do codes in menu order, then every Decide *)
    decides : int list;  (* the Decide codes, for a process out of steps *)
    indep : Independence.t;
    views : Intern.t;
    envs : Intern.t;
    results : Intern.t;
    positions : Intern.Ints.t;
    store : Tt.store;
    mutable env_states : Env.state array;  (* env id -> state *)
    mutable sigma : int array;  (* σ: σ-key -> action code or Tt.unassigned *)
    mutable writer : int array;
        (* σ-key -> serial of the choice frame that wrote σ there;
           read only while σ holds the entry it wrote *)
    mutable next_env : int array;
        (* env_id * ndo + Do code -> env id after the move; -1 not yet
           computed, -2 unknown operation *)
    mutable next_res : int array;  (* ... -> result id of the move *)
    next_view : int Int_tbl.t;
        (* (σ-key lsl 31) lor result id -> σ-key of the extended view *)
    mutable view_hits : int;  (* [next_view] hits: view lookups served *)
    mutable indep_rows : Bytes.t array;
        (* env id -> ndo×ndo tri-state row of Do/Do independence
           (0 unknown, 1 independent, 2 dependent) *)
  }

  type t = {
    n : int;
    mutable game : game option;
    mutable vh_flushed : int;
    mutable vl_flushed : int;
  }

  let create ~n () = { n; game = None; vh_flushed = 0; vl_flushed = 0 }

  let tt_entries t =
    match t.game with None -> 0 | Some g -> Tt.entries g.store

  let binding (inst : instance) : binding =
    ( List.map
        (fun (name, (spec : Object_spec.t)) ->
          (name, spec.Object_spec.name, spec.Object_spec.menu))
        (Env.specs inst.env),
      Array.init inst.n inst.candidates )

  let no_row = Bytes.empty

  (* Action codes: every distinct Do candidate of every process in
     first-seen order, then the decides.  Structurally equal actions
     share a code, so code equality is action equality. *)
  let make (inst : instance) binding =
    let n = inst.n in
    let codes = Hashtbl.create 16 in
    let dos = ref [] in
    let code_of a =
      match Hashtbl.find_opt codes a with
      | Some c -> c
      | None ->
          let c = Hashtbl.length codes in
          Hashtbl.replace codes a c;
          dos := a :: !dos;
          c
    in
    let do_codes =
      Array.map
        (List.map (fun (obj, op) -> code_of (Do (obj, op))))
        (snd binding)
    in
    let ndo = Hashtbl.length codes in
    let decides = List.init n (fun j -> ndo + j) in
    let indep =
      Wfs_obs.Profile.span ~cat:"solver" "solver.independence" (fun () ->
          Independence.of_env inst.env)
    in
    {
      binding;
      actions =
        Array.of_list (List.rev !dos @ List.init n (fun j -> Decide j));
      ndo;
      cands = Array.map (fun ops -> ops @ decides) do_codes;
      decides;
      indep;
      views = Intern.create ~size_hint:64 ();
      envs = Intern.create ~size_hint:64 ();
      results = Intern.create ~size_hint:16 ();
      positions = Intern.Ints.create ~size_hint:8192 ();
      store = Tt.create ();
      env_states = [||];
      sigma = [||];
      writer = [||];
      next_env = [||];
      next_res = [||];
      next_view = Int_tbl.create 64;
      view_hits = 0;
      indep_rows = [||];
    }

  let bind t (inst : instance) =
    let b = binding inst in
    match t.game with
    | Some g ->
        if g.binding <> b then begin
          let names (objs, _) =
            String.concat ", " (List.map (fun (_, s, _) -> s) objs)
          in
          invalid_arg
            (Fmt.str
               "Solver.solve: shared ctx is bound to another object \
                (ctx: %s, instance: %s)"
               (names g.binding) (names b))
        end;
        g
    | None ->
        let g = make inst b in
        t.game <- Some g;
        g

  (* σ-key of [pid] at [view], interning the view; a fresh view grows
     σ and [writer] to cover its keys. *)
  let skey g ~n pid view =
    let vid = Intern.intern g.views view in
    let len = (vid + 1) * n in
    if len > Array.length g.sigma then begin
      g.sigma <- grow g.sigma len Tt.unassigned;
      g.writer <- grow g.writer len 0
    end;
    (vid * n) + pid

  (* Id of an environment state; a fresh one gets its transition and
     independence slots. *)
  let env_id g state =
    let fresh = Intern.size g.envs in
    let id = Intern.intern g.envs (Env.encode state) in
    if id = fresh then begin
      g.env_states <- grow g.env_states (id + 1) state;
      g.env_states.(id) <- state;
      g.next_env <- grow g.next_env ((id + 1) * g.ndo) (-1);
      g.next_res <- grow g.next_res ((id + 1) * g.ndo) (-1);
      g.indep_rows <- grow g.indep_rows (id + 1) no_row
    end;
    id

  (* Slot of the move [code] (a Do) at [env_id] in [next_env] /
     [next_res], computed on first use: [Env.apply], [Env.encode] and
     the interning run once per (environment, action). *)
  let transition g (inst : instance) eid code =
    let t = (eid * g.ndo) + code in
    if g.next_env.(t) = -1 then begin
      match g.actions.(code) with
      | Decide _ -> assert false
      | Do (obj, op) -> (
          match Env.apply inst.env g.env_states.(eid) obj op with
          | exception Object_spec.Unknown_operation _ -> g.next_env.(t) <- -2
          | state', res ->
              let e' = env_id g state' in
              let r = Intern.intern g.results res in
              g.next_env.(t) <- e';
              g.next_res.(t) <- r)
    end;
    t

  (* σ-key of the view [res :: view(sk)], memoized per (σ-key,
     result): the [Value.t] view is built and interned only on a miss.
     The pair packs into one int because both are dense intern ids,
     far below 2^31. *)
  let next_skey g ~n sk res =
    let k = (sk lsl 31) lor res in
    match Int_tbl.find g.next_view k with
    | sk' ->
        g.view_hits <- g.view_hits + 1;
        sk'
    | exception Not_found ->
        let view =
          Value.list
            (Intern.value g.results res
            :: Value.as_list (Intern.value g.views (sk / n)))
        in
        let sk' = skey g ~n (sk mod n) view in
        Int_tbl.add g.next_view k sk';
        sk'

  (* Are the Do moves [a] and [b] independent at [env_id]?  Memoized per
     (environment, code pair) over {!Independence.independent_at}. *)
  let independent g env_id a b =
    let row =
      let row = g.indep_rows.(env_id) in
      if row != no_row then row
      else begin
        let row = Bytes.make (g.ndo * g.ndo) '\000' in
        g.indep_rows.(env_id) <- row;
        row
      end
    in
    let cell = (a * g.ndo) + b in
    match Bytes.get row cell with
    | '\001' -> true
    | '\002' -> false
    | _ ->
        let ok =
          match (g.actions.(a), g.actions.(b)) with
          | Do (o1, op1), Do (o2, op2) ->
              Independence.independent_at g.indep g.env_states.(env_id) o1
                op1 o2 op2
          | _ -> assert false
        in
        Bytes.set row cell (if ok then '\001' else '\002');
        ok
end

(* Canonical position key: [env_id; stepped; decisions; then for each
   UNDECIDED process its σ-key and remaining step budget].  Decided
   processes' views and step counts are dead state — nothing in the
   subgame ever reads them — so dropping them canonicalizes more
   positions together.  Remaining (not consumed) steps make entries
   depth-transposable: the subgame below a position depends only on how
   many operations each process may still take.  [bufs.(u)] is the
   scratch key for [u] undecided processes; only a fresh key is copied
   into [positions], so a node allocates no key. *)
let position_key ~depth ~n ~bufs positions st =
  let buf = bufs.(st.undecided) in
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
  match Intern.Ints.find positions buf with
  | -1 -> Intern.Ints.add positions (Array.copy buf)
  | id -> id

(* The strategy table σ maps (pid, local view) to the chosen action's
   code: an int array indexed by the σ-key [view_id * n + pid], with
   [Tt.unassigned] for an open entry.  It lives in the context and is
   cleared when a solve starts: a solvable or budget-cut solve leaves
   its entries behind. *)
let search ~max_nodes ~(ctx : Ctx.t) (g : Ctx.game) (inst : instance) =
  let n = inst.n in
  let ndo = g.Ctx.ndo in
  let unassigned = Tt.unassigned in
  let sigma_find k = g.Ctx.sigma.(k) in
  Array.fill g.Ctx.sigma 0 (Array.length g.Ctx.sigma) unassigned;
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
     propagating [false], and a serial supply for choice frames (the
     serial of the frame that wrote each assigned σ-key is kept in
     the context's [writer]; hit moves extend their child's [chain]
     with it). *)
  let stack : Tt.frame list ref = ref [] in
  let conflict : Tt.conflict option ref = ref None in
  let serial = ref 0 in
  let log_read key seen =
    match !stack with fr :: _ -> Tt.log_read fr key seen | [] -> ()
  in
  let bufs = Array.init (n + 1) (fun u -> Array.make (2 + n + (2 * u)) 0) in
  let empty = Value.list [] in
  let initial =
    {
      skeys = Array.init n (fun pid -> Ctx.skey g ~n pid empty);
      steps = Array.make n 0;
      decisions = Array.make n (-1);
      stepped = 0;
      undecided = n;
      env_id = Ctx.env_id g (Env.init inst.env);
      chain = [];
    }
  in
  let agreement_ok st =
    let d0 = st.decisions.(0) in
    Array.for_all (fun d -> d = d0) st.decisions
  in
  (* any decision already output along the current schedule *)
  let pinned st =
    let rec go i =
      if i >= n then None
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
      let pos = position_key ~depth:inst.depth ~n ~bufs g.Ctx.positions st in
      match Tt.lookup g.Ctx.store ~find:sigma_find ~pos ~mask:sleep with
      | Tt.Replay e ->
          incr tt_h;
          (* the replayed verdict depends on these σ values: they
             join the enclosing subproof's footprint *)
          let fp = e.Tt.e_fp in
          for i = 0 to (Array.length fp / 2) - 1 do
            log_read fp.(2 * i) fp.((2 * i) + 1)
          done;
          if e.Tt.e_true then k ()
          else begin
            conflict := Some { Tt.c_fp = Some fp; c_chain = st.chain };
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
                 Tt.record g.Ctx.store ~pos
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
                 Tt.record g.Ctx.store ~pos
                   { Tt.e_true = true; e_mask = sleep; e_fp }
             | None -> ());
          ok
  and explore st sleep k =
    let rec obligations pid =
      if pid >= n then k ()
      else if st.decisions.(pid) >= 0 then obligations (pid + 1)
      else if sleep land (1 lsl pid) <> 0 then begin
        incr sleep_cut;
        obligations (pid + 1)
      end
      else step st sleep pid (fun () -> obligations (pid + 1))
    in
    obligations 0
  (* the σ-assigned action code of [pid] at its current view, or
     [unassigned] — used only to decide dominance, so it must not
     perturb the memo-hit accounting (it does join the footprint: sleep
     decisions are σ-dependent) *)
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
    if aq < ndo then
      if a < ndo then Ctx.independent g st.env_id aq a
      else decide_indep pid (a - ndo) q
    else if a < ndo then decide_indep q (aq - ndo) pid
    else decide_indep q (aq - ndo) pid && decide_indep pid (a - ndo) q
  (* Sleep mask for the subtree entered by [pid] doing [a]: an
     undecided [q] is dominated there when its branch was already
     covered at this node (explored as an earlier sibling, or itself
     asleep on arrival), its next action is σ-determined, and that
     action is independent of [a].  σ entries consulted here were
     necessarily set at or above this node's choice points, so they
     survive for the lifetime of the subtree. *)
  and child_sleep st sleep pid a =
    let m = ref 0 in
    for q = 0 to n - 1 do
      if
        q <> pid
        && st.decisions.(q) < 0
        && (sleep land (1 lsl q) <> 0 || q < pid)
      then
        let aq = peek st q in
        if aq <> unassigned && indep_action st q aq pid a then
          m := !m lor (1 lsl q)
    done;
    !m
  and step st sleep pid k =
    let skey = st.skeys.(pid) in
    let a = sigma_find skey in
    if a <> unassigned then begin
      incr memo_h;
      log_read skey a;
      (* the move is σ-determined: the state about to be built hangs
         off the choice frame that wrote this entry *)
      apply st sleep pid a (g.Ctx.writer.(skey) :: st.chain) k
    end
    else begin
      incr memo_m;
      let cands =
        if st.steps.(pid) < inst.depth then g.Ctx.cands.(pid)
        else g.Ctx.decides
      in
      (* the choice point observed σ(skey) unassigned: that is a
         constraint of the ENCLOSING subproof (logged before the
         step frame opens) *)
      log_read skey unassigned;
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
            g.Ctx.sigma.(skey) <- a;
            Tt.log_write fr skey;
            g.Ctx.writer.(skey) <- sn;
            let kb = !kran in
            if apply st sleep pid a chain' kw then true
            else begin
              g.Ctx.sigma.(skey) <- unassigned;
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
    end
  and apply st sleep pid a chain k =
    if a >= ndo then begin
      let j = a - ndo in
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
    end
    else if st.steps.(pid) >= inst.depth then refuted chain
    else
      let t = Ctx.transition g inst st.env_id a in
      let env_id = g.Ctx.next_env.(t) in
      if env_id < 0 then refuted chain
      else
        let skey' = Ctx.next_skey g ~n st.skeys.(pid) g.Ctx.next_res.(t) in
        schedules
          {
            skeys = set st.skeys pid skey';
            steps = set st.steps pid (st.steps.(pid) + 1);
            decisions = st.decisions;
            stepped = st.stepped lor (1 lsl pid);
            undecided = st.undecided;
            env_id;
            chain;
          }
          (child_sleep st sleep pid a)
          k
  in
  let flush_view_metrics () =
    let open Wfs_obs.Metrics in
    (* with a shared context the interner outlives the solve: flush
       deltas since the last flush, not cumulative totals.  A memoized
       view successor counts as a lookup that hit. *)
    let views = g.Ctx.views in
    let hits = Intern.hits views + g.Ctx.view_hits
    and lookups = Intern.lookups views + g.Ctx.view_hits in
    Counter.add M.view_intern_hits (hits - ctx.Ctx.vh_flushed);
    Counter.add M.view_intern_lookups (lookups - ctx.Ctx.vl_flushed);
    ctx.Ctx.vh_flushed <- hits;
    ctx.Ctx.vl_flushed <- lookups;
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
        let strategy = ref [] in
        Array.iteri
          (fun k c ->
            if c <> unassigned then
              strategy :=
                {
                  pid = k mod n;
                  view = Intern.value g.Ctx.views (k / n);
                  chosen = g.Ctx.actions.(c);
                }
                :: !strategy)
          g.Ctx.sigma;
        Solvable
          (List.sort
             (fun a b ->
               match Int.compare a.pid b.pid with
               | 0 -> Value.compare a.view b.view
               | c -> c)
             !strategy)
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
      search ~max_nodes ~ctx (Ctx.bind ctx inst) inst)

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
