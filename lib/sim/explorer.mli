(** Exhaustive interleaving exploration — the literal universal
    quantification over the adversarial scheduler, for protocols with
    finite reachable joint-state spaces.

    On a finite state graph, wait-freedom is acyclicity: a reachable
    cycle is exactly a schedule on which some undecided process steps
    forever; on a DAG, the longest-path bound is the strong-wait-freedom
    step bound of §2.4.

    {!check} is the one harness the simulator's verifiers run: a
    terminal-state check over every distinct reachable terminal,
    folded into one {!verdict}. *)

open Wfs_spec

type config = { procs : Process.t array; env : Env.t }

type node = {
  locals : Value.t array;
  decided : Value.t option array;
  env_state : Env.state;
  stepped : int;  (** bitmask of processes that have taken ≥ 1 step *)
  crashed : int;
      (** bitmask of processes halted by the crash-stop adversary; a
          crashed process is never scheduled again *)
}

type terminal = {
  decisions : Value.t option array;
      (** per-process decision; [None] iff the process crashed before
          deciding *)
  who_stepped : int;  (** bitmask of processes that took ≥ 1 step *)
  who_crashed : int;  (** bitmask of processes crashed in the execution *)
}

(** Which budget cut the exploration short. *)
type truncation = Budget_states | Budget_depth

type stats = {
  states : int;
  terminals : terminal list;
      (** deduplicated (decision vector, stepped mask, crashed mask)
          terminal outcomes, sorted by that key *)
  cyclic : bool;
  stuck : (int * string) option;
  truncated : bool;
  truncation : truncation option;
      (** the budget exhausted first, when [truncated]; mirrored into
          the [explorer.truncated.states] / [explorer.truncated.depth]
          metrics *)
  invalid_decisions : (int * Value.t) list;
      (** every distinct [(pid, value)] pair of a decide event naming a
          process that had not yet stepped — the paper's validity
          condition, checked on every history prefix — sorted, with no
          cap (there are at most n times the number of decision
          values) *)
  step_bounds : int array option;
      (** worst-case per-process step counts, when acyclic and fully
          explored *)
}

val initial : config -> node

(** The joint state packed into one flat string — locals, decisions,
    environment state and the stepped and crashed masks, marshalled
    without sharing.  Injective: two nodes get the same key iff they
    are structurally equal.  Every joint-state search keys its visited
    set or memo table by it. *)
val key : node -> string

(** Terminal under the crash-stop adversary: every process has decided
    or crashed.  With [crashed = 0] this is the original "everyone
    decided". *)
val is_terminal : node -> bool

type edge = Decide_edge of Value.t | Op_edge | Crash_edge

(** Successor relation: one edge per live (neither decided nor crashed)
    process; a [Decide] transition counts as that process's step.  With
    [crashes] above the number of crashes already in [node.crashed],
    also one [Crash_edge] per live process — the adversary halting it at
    exactly this point.  Crash edges are listed first, do not set the
    [stepped] bit, and do not count as steps in the longest-path DP. *)
val successors : ?crashes:int -> config -> node -> (int * node) list

val successors_with_edges :
  ?crashes:int -> config -> node -> (int * edge * node) list

(** [decision_valid node ~pid v]: deciding [v] in [node] satisfies the
    paper's validity condition — [v] names the decider or a process that
    has already stepped. *)
val decision_valid : node -> pid:int -> Value.t -> bool

(** Exhaustive DFS.

    The engine interns joint-state keys ({!key}) to dense ids
    ({!Intern}) and computes the longest-path step
    bounds post-order during the single iterative DFS — no second
    traversal, no re-derived successors, no stack-overflow risk at
    large [max_depth].  A negative [max_states], [max_depth] or
    [crashes] raises [Invalid_argument]; budgets of 0 are legal.

    Redundant interleavings are pruned with sleep
    sets over the semantic independence relation ({!Independence},
    computed once per call from the environment's sequential
    semantics): an edge whose action was already explored at an
    ancestor node, with every move since independent of it, is an
    adjacent-transposition rearrangement of an explored schedule and
    is skipped without deriving its successor.  Only monotone edges —
    decides, crashes, and first steps, which no cycle can contain —
    are pruned, and invalid decides are noted for every generated
    edge before the pruning decision, so [states], [terminals],
    [cyclic], [stuck], [invalid_decisions] and [step_bounds] are all
    exactly those of the unreduced search (the reduction removes
    *edges*, never states); only the per-edge work shrinks.  Skipped
    edges feed [explorer.por.pruned].  The reduction composes with
    [crashes] and [pool]; it is disabled automatically for more than
    16 processes, where the sleep masks no longer fit one int.  The
    unreduced search is kept as a test oracle
    (test/explorer_oracle.ml), not as a mode.

    [crashes] (default 0) is the crash-stop adversary's budget: the
    exploration additionally quantifies over every point at which up to
    [crashes] processes halt permanently (Herlihy's failure model —
    wait-freedom {e is} tolerance of [n-1] undetected halting
    failures).  Terminals then require every process to have decided or
    crashed; a crashed process's decision slot is [None].  With
    [crashes = 0] the state graph, verdicts, and step bounds are
    exactly those of the crash-free explorer.  Crash edges feed the
    [explorer.crash_edges] counter.

    [pool] (default none) runs the exploration across the pool's
    domains when the pool has size > 1: a short
    sequential BFS fans the top-level schedule prefixes out as worker
    seeds; workers share the visited set through a lock-striped
    interner whose claim bit assigns each distinct state to exactly one
    expander; cycle detection and the step-bound DP then run as the
    sequential engine's own DFS, over the recorded int adjacency.  On
    runs that finish within budget, every field of {!stats} except the
    marginal truncation details is schedule-independent and equal to
    the sequential engine's.  Omitting [pool], or passing a size-1
    pool, uses the sequential engine unchanged.

    Each run also feeds the default [Wfs_obs.Metrics] registry:
    [explorer.runs], [explorer.states] (flushed live in batches of
    1024 so a mid-run scrape sees progress, together with the
    [explorer.frontier] depth gauge, set back to 0 when the run ends,
    and the claiming domain's [pool.shard.states{shard=i}] series), [explorer.dedup_hits] /
    [explorer.dedup_lookups] / [explorer.dedup_hit_rate],
    [explorer.max_depth], a truncation counter per {!truncation} cause,
    [explorer.intern.hits] /
    [explorer.intern.lookups] / [explorer.intern.arena_size] and
    [explorer.fused_dp.edges] (edges whose DP contribution was folded
    in the single pass, i.e. the second traversal saved).  Parallel
    runs add [explorer.par.runs], [explorer.par.seeds] and the
    [explorer.par.domains] gauge.

    [on_terminal] (default a no-op) is called exactly once per distinct
    reachable terminal state within budget (distinct by {!key}), where
    the engine records it —
    the hook through which a caller checks a property of every final
    state.  The reduction never removes a state, so every terminal
    state is seen.  Under a pool of size > 1 it runs on the worker
    domain that claimed the state, concurrently with other workers'
    calls: a hook that accumulates must synchronise itself.  An
    exception it raises propagates out of [explore]. *)
val explore :
  ?max_states:int ->
  ?max_depth:int ->
  ?crashes:int ->
  ?pool:Pool.t ->
  ?on_terminal:(node -> unit) ->
  config ->
  stats

(** No cycle, nothing stuck, nothing truncated. *)
val wait_free : stats -> bool

(** What {!check} concludes: [states] explored, [terminals] judged,
    [wait_free] as {!wait_free}, and the first [failure] a terminal
    check reported.  [ok] is [failure = None && wait_free]: a cyclic,
    stuck or budget-capped search is never [ok]. *)
type verdict = {
  ok : bool;
  states : int;
  terminals : int;
  wait_free : bool;
  failure : string option;
}

(** [check config ~terminal] explores [config] sequentially (see
    {!explore}) and judges every distinct reachable terminal state
    with [terminal], once each, keeping the first [Error]. *)
val check :
  ?max_states:int ->
  config ->
  terminal:(node -> (unit, string) result) ->
  verdict

(** Several explorations judged as one: states and terminals add up,
    every run must be wait-free, and the first failure in list order
    is kept.  [all []] is a vacuous pass. *)
val all : verdict list -> verdict
