(** A solver-measured census of the object zoo: consensus solvability at
    n = 2 and n = 3 within a bounded number of operations per process,
    decided directly by strategy synthesis — Figure 1-1 re-derived with
    no protocol-specific knowledge.

    Implementations may initialize their objects, so the census
    quantifies over initial states reachable within two menu operations
    — it is the solver that discovers the paper's queue pre-loading
    trick.  Negative verdicts are bounded ("no ≤ d-op protocol from any
    tried initialization"); the protocol-verified {!Table} complements
    them for objects whose canonical protocols need more operations. *)

open Wfs_spec

type outcome = Solvable | Unsolvable | Budget

type measurement = {
  object_name : string;
  menu_size : int;
  inits_tried : int;
  two_proc : outcome * int;  (** verdict, total search nodes *)
  three_proc : outcome * int;
  winning_init2 : Value.t option;
  winning_init3 : Value.t option;
  depth2 : int;
  depth3 : int;
  interpretation : string;
}

(** Initial states reachable within two menu operations (capped). *)
val candidate_inits : ?max_candidates:int -> Object_spec.t -> Value.t list

(** [por] (default true) forwards the solver's sleep-set cutoffs:
    verdicts and winning initializations are identical either way, only
    the per-verdict node counts shrink.  [tt] (default true) forwards the
    transposition/no-good layer; all candidate initializations of an
    (object, n) row share one {!Solver.Ctx}, so later candidates
    replay subgames the earlier ones classified.  [por:false] with
    [tt:false] reproduces the unreduced historical node counts. *)
val measure :
  ?depth2:int -> ?depth3:int -> ?max_nodes:int -> ?max_candidates:int ->
  ?por:bool -> ?tt:bool -> Object_spec.t -> measurement

(** [pool] shards the census across a domain pool: each (object, n)
    solver instance is an independent job, issued heaviest-first so a
    big instance never straggles behind an otherwise-drained batch, and
    measurements are reassembled in zoo order — the output is
    byte-identical to the sequential census. *)
val run :
  ?depth2:int -> ?depth3:int -> ?max_nodes:int -> ?por:bool -> ?tt:bool ->
  ?pool:Wfs_sim.Pool.t -> unit -> measurement list

(** {1 Critical depth}

    The least step bound at which an (object, n) row becomes solvable.
    Solvability is monotone in the bound (a depth-d protocol is a
    depth-d' protocol for every d' ≥ d), so the row is a step function
    of depth and the threshold is found by binary search — O(log
    max_depth) solver probes, all sharing one {!Solver.Ctx} (positions
    are keyed by remaining step budget, so subgames classified at one
    probe depth replay at the others). *)

type depth_probe = {
  probe_depth : int;
  probe_outcome : outcome;
  probe_nodes : int;
}

type critical = {
  critical : int option;
      (** least solvable depth ≤ [max_depth]; [None] if unsolvable (or
          inconclusive) throughout *)
  exact : bool;
      (** [false] when a budget-exhausted probe forced a conservative
          bracket: [critical] is then only an upper bound *)
  probes : depth_probe list;  (** in probe order *)
  total_nodes : int;
}

val critical_depth :
  ?max_nodes:int -> ?max_candidates:int -> ?por:bool ->
  ?tt:bool -> n:int -> max_depth:int -> Object_spec.t -> critical

val pp_outcome : outcome Fmt.t
val pp_measurement : measurement Fmt.t
val pp : measurement list Fmt.t
val pp_critical : critical Fmt.t
