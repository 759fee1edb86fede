(** Consensus-protocol framework (§3).

    A protocol is a system of processes over a shared-object environment,
    each using its own identifier as input (consensus as election).
    {!verify} machine-checks the paper's partial-correctness and
    wait-freedom conditions over every schedule, via the exhaustive
    explorer. *)

open Wfs_spec
open Wfs_sim

type t = {
  name : string;
  theorem : string;
  processes : int;
  config : Explorer.config;
}

type report = {
  agreement : bool;  (** no execution has two decision values *)
  validity : bool;
      (** every decision names a process that took at least one step *)
  wait_free : bool;
  states : int;
  step_bounds : int array option;
  decisions_seen : Value.t list;
  stuck : (int * string) option;
  truncated : bool;
  truncation : Explorer.truncation option;
      (** which budget cut exploration short, when [truncated] *)
  crashes : int;
      (** the crash-stop budget the run was checked under (0 = the
          original crash-free semantics) *)
}

(** All conditions hold and exploration was complete. *)
val passed : report -> bool

val make :
  name:string -> theorem:string -> procs:Process.t array -> env:Env.t -> t

(** [crashes] (default 0) grants the crash-stop adversary a budget of
    up to that many permanent halts, placed adversarially at any point
    of any schedule (see {!Explorer.explore}).  Agreement and validity
    are then checked over the processes that do decide, and
    wait-freedom demands every surviving process decide on every
    schedule — the paper's own failure model, checked literally.

    [pool] runs the exploration across a domain pool (see
    {!Explorer.explore}); verdicts on untruncated runs are identical to
    the sequential engine's. *)
val verify :
  ?max_states:int ->
  ?max_depth:int ->
  ?crashes:int ->
  ?pool:Pool.t ->
  t ->
  report

(** Human-readable truncation cause ("no" when complete). *)
val truncation_label : Explorer.truncation option -> string

(** Run on one concrete schedule (demos, tests). *)
val run_once : ?max_steps:int -> schedule:Scheduler.t -> t -> Runner.outcome

(** Schedule entries of a violating execution: re-exported from
    {!Wfs_obs.Counterexample} so violations convert to on-disk
    counterexamples without translation. *)
type step = Wfs_obs.Counterexample.step = Step of int | Crash of int

(** A concrete failing schedule, extracted when verification would fail:
    feed it back through {!replay} to reproduce. *)
type violation = {
  kind : [ `Disagreement | `Invalid_decision ];
  schedule : step list;
  decisions : (int * Value.t) list;
}

(** [crashes] as in {!verify}; with a positive budget the returned
    schedule may contain [Crash] entries.  The search is a sequential
    DFS over the unreduced graph, in successor order; the schedule
    returned leads to its first violating node. *)
val find_violation : ?max_states:int -> ?crashes:int -> t -> violation option

val pp_violation : violation Fmt.t

(** Package a violation as a replayable on-disk counterexample;
    [protocol] is the registry key and [n] the process count needed to
    rebuild the protocol. *)
val violation_to_counterexample :
  protocol:string -> n:int -> violation -> Wfs_obs.Counterexample.t

(** Re-execute a schedule deterministically through the explorer's
    successor relation, checking validity at each decide and agreement
    at the terminal state.  [Crash] entries re-apply the adversary's
    halts (the crash budget is the number of such entries).  Returns
    the violation the schedule exhibits, if any.  Raises
    [Invalid_argument] if some pid in the schedule cannot step (or
    crash) where the schedule says it does. *)
val replay : t -> schedule:step list -> violation option

(** [replay_counterexample t ce] re-executes [ce]'s schedule and checks
    that the same violation — kind and decisions — recurs; [Error]
    explains any divergence. *)
val replay_counterexample :
  t -> Wfs_obs.Counterexample.t -> (violation, string) result

val pp_report : report Fmt.t
