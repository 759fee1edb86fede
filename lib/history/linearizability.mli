(** Linearizability checking (§2.3), Wing-&-Gong style: exhaustive search
    for a legal sequential witness extending the real-time order, with
    memoization on (specification state, linearized set).

    Linearizability is a local property, so multi-object histories are
    checked one object at a time.  {!check_witness} is the linear-time
    check for constructions that report their own order. *)

open Wfs_spec

type verdict = {
  linearizable : bool;
  witness : History.operation list option;
      (** a legal linearization order, when one was produced *)
}

(** Raised when a single object's history has more operations than the
    checker's bitmask can track. *)
exception Too_many_operations of int

(** Check the subhistory of a single object against its specification. *)
val check_object : Object_spec.t -> History.t -> verdict

(** Check a multi-object history against an environment of
    specifications, object by object.  Ill-formed histories are not
    linearizable. *)
val is_linearizable : (string * Object_spec.t) list -> History.t -> bool

(** [check_witness spec ~length ops] checks one object's history against
    the linearization order its construction reported, in time linear in
    the history plus a search over the pending operations alone.  Each
    operation comes with its log position, or [None] for a pending one
    whose position went unreported.  The run is accepted iff the given
    positions are distinct and lie in [[0, length)]; every other
    position is filled by a distinct pending operation (pending ones
    left over are dropped); no operation responded before an
    earlier-positioned one was invoked; and replaying [spec] in position
    order reproduces every completed result.  A completed operation
    without a position is rejected. *)
val check_witness :
  Object_spec.t -> length:int -> (History.operation * int option) array -> bool
