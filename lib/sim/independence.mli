(** Semantic independence of operations, from sequential specifications.

    Two operations are independent at a state when the commuting
    diamond closes there: either order reaches the same state and each
    operation returns the same result in both orders.  Steps of
    different processes that are independent where they execute can be
    transposed in a schedule without changing anything any process
    observes — the relation that drives the explorer's sleep-set
    pruning and the solver's scheduler-dominance cutoffs.

    The relation generalizes the commute half of
    [Wfs_hierarchy.Interference] (Theorem 6's analysis of unary
    register functions) to arbitrary {!Object_spec} semantics.
    Verdicts are computed lazily, one diamond at a time, and memoized
    per object state — {!of_env} itself only indexes the menus, so
    building a relation is cheap even when it is consulted rarely.
    Operations on distinct objects always commute (atomic application
    touches one slot of the environment vector). *)

open Wfs_spec

type t

(** [of_env env] prepares the relation for every object of [env]
    (menu indexing only; verdicts are computed on demand). *)
val of_env : Env.t -> t

(** [independent_at t state obj_a op_a obj_b op_b]: conditional
    independence — the commuting diamond at one specific environment
    [state] only.  Admits pairs that conflict elsewhere (e.g. two
    writes of the value already stored) and needs no state-space
    closure; sound for sleep-set reductions because each adjacent
    transposition is checked at the state where the pair executes.
    [false] for an unknown object.  Verdicts are memoized per object
    and state. *)
val independent_at :
  t -> Env.state -> string -> Op.t -> string -> Op.t -> bool
