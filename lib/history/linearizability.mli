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

(** One run's operations, column-wise, as the construction reported
    them: operation [i] is [ops.(i)], invoked at [invoked.(i)]; it
    returned [results.(i)] at [responded.(i)], or is pending when
    [responded.(i) = max_int] (its result is then ignored); its log
    position is [positions.(i)], or [-1] when unreported.  All five
    arrays have one length. *)
type witness = {
  ops : Op.t array;
  results : Value.t array;
  invoked : int array;
  responded : int array;
  positions : int array;
}

(** [check_witness spec ~length ws] checks one object's history, given
    as any number of column blocks (e.g. one per client), against the
    linearization order its construction reported, in time linear in
    the history plus a search over the pending operations alone.  The
    run is accepted iff the reported positions are distinct and lie in
    [[0, length)]; every other position is filled by a distinct pending
    operation without one (pending ones left over are dropped); no
    operation responded before an earlier-positioned one was invoked;
    and replaying [spec] in position order reproduces every completed
    result.  A completed operation without a position is rejected.
    Raises [Invalid_argument] when a block's arrays differ in length. *)
val check_witness : Object_spec.t -> length:int -> witness list -> bool
