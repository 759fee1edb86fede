(** Valency (bivalence) analysis — the proof technique behind every
    impossibility result in the paper, made executable.

    The valency of a protocol state is the set of decision values
    reachable from it; a critical state is a bivalent state whose
    successors are all univalent.  Only meaningful for wait-free
    protocols (acyclic joint-state graphs). *)

open Wfs_spec

module Vset : Set.S with type elt = Value.t

type valency = Vset.t

val is_bivalent : valency -> bool
val is_univalent : valency -> bool

type critical = {
  state : Explorer.node;
  branches : (int * Explorer.node * valency) list;
}

(** [analyze config] is [(root_valency, valency_fn)]: the valency of the
    initial state, plus a memoized valency function over nodes.

    [crashes] grants the crash-stop adversary a halt budget (see
    {!Explorer.successors}); reachable-decision sets then range over
    crash-extended executions, where a terminal's values are those of
    the surviving deciders.  Raises [Invalid_argument] when
    [crashes < 0]. *)
val analyze :
  ?crashes:int -> Explorer.config -> valency * (Explorer.node -> valency)

(** Find a critical state reachable from the initial state, if any.  A
    correct wait-free consensus protocol with a bivalent initial state
    always has one.  [crashes] as in {!analyze}; crash successors count
    as branches, so a state is only critical if even the adversary's
    halts commit the outcome.  Raises [Invalid_argument] when
    [crashes < 0]. *)
val find_critical : ?crashes:int -> Explorer.config -> critical option

val pp_valency : valency Fmt.t
