(** Deterministic crash-stop fault injection for the multicore runtime.

    Wait-freedom is tolerance of up to [n-1] undetected halting failures
    (§2); the simulator checks that exhaustively
    ([Wfs_sim.Explorer ~crashes]), and this module injects the same
    adversary into real domains: a plan places stalls and permanent
    halts at {e operation boundaries} — the points just before and just
    after a shared-object operation, where a crash-stop failure is
    observable.  Everything is plan-driven and deterministic, so a
    failing stress run replays exactly. *)

(** A fault at the [boundary]-th boundary crossing of process [pid]
    (crossings are numbered from 0; an operation run under {!protect}
    crosses two).  [Stall] delays for [spins] backoff iterations — the
    adversary's "slow process"; [Halt] makes the process permanently
    down: the crossing raises {!Halted}, and so does every later one. *)
type rule =
  | Stall of { pid : int; boundary : int; spins : int }
  | Halt of { pid : int; boundary : int }

(** Raised at a boundary crossing of a halted process; carries the pid.
    Unwind the domain: the process must never take another step.
    [Wfs_runtime.Recorder.around] turns the unwind into a distinguished
    crashed response, leaving the operation pending for the
    linearizability checker. *)
exception Halted of int

(** The injector: per-process boundary counters plus the plan. *)
type t

(** [create ~n plan] validates that every rule names a pid in
    [0..n-1].  Raises [Invalid_argument] otherwise. *)
val create : n:int -> rule list -> t

(** Announce a boundary crossing of [pid]: applies any matching rule.
    Feeds the [fault.boundaries] (hot-gated), [fault.stalls] and
    [fault.halts] metrics.  Raises {!Halted} if [pid] halts here or
    already halted. *)
val boundary : t -> pid:int -> unit

(** [protect t ~pid f] runs [f] bracketed by two {!boundary}
    crossings: a halt at the first models a crash before the
    operation's effect, at the second a crash after the effect but
    before the response — the two faces of a pending operation. *)
val protect : t -> pid:int -> (unit -> 'a) -> 'a

val is_halted : t -> pid:int -> bool

(** Pids halted so far, ascending. *)
val halted : t -> int list

(** {1 Fault-injecting primitive wrappers}

    The operations of {!Primitives}, each bracketed by two boundary
    crossings of the calling process. *)

(** Alias for the injector, for the wrapped-object records. *)
type injector = t

module Register : sig
  type 'a t

  val make : injector -> 'a -> 'a t
  val read : 'a t -> pid:int -> 'a
  val write : 'a t -> pid:int -> 'a -> unit
end

module Test_and_set : sig
  type t

  val make : injector -> t
  val test_and_set : t -> pid:int -> bool
  val read : t -> pid:int -> bool
end

module Fetch_and_add : sig
  type t

  val make : injector -> int -> t
  val fetch_and_add : t -> pid:int -> int -> int
  val read : t -> pid:int -> int
end

module Swap : sig
  type 'a t

  val make : injector -> 'a -> 'a t
  val swap : 'a t -> pid:int -> 'a -> 'a
  val read : 'a t -> pid:int -> 'a
end

module Cas : sig
  type 'a t

  val make : injector -> 'a -> 'a t
  val compare_and_swap : 'a t -> pid:int -> expected:'a -> replacement:'a -> 'a
  val compare_and_set : 'a t -> pid:int -> 'a -> 'a -> bool
  val read : 'a t -> pid:int -> 'a
end

(** {1 Crash-stop stress harness} *)

type stress = {
  n : int;
  halts : int;  (** requested halt count *)
  down : int list;  (** pids actually halted, ascending *)
  survivor_ops : int;  (** operations completed by surviving domains *)
  crashed_ops : int;  (** operations left pending by halted domains *)
  survivors_completed : bool;
      (** every surviving domain ran its full workload *)
  well_formed : bool;  (** the recorded history is well-formed *)
  linearizable : bool;
      (** completed + crashed-pending operations linearize against the
          sequential FIFO spec *)
}

(** Run [n] domains against the wait-free (announce-and-help) universal
    queue, halting domains [0..halts-1] mid-operation — each inside its
    own operation, after the operation's effect but before its response
    (the hardest case for the checker).  Survivors must complete
    [ops_per_proc] operations each (default 7; the total is validated
    against {!Wfs_history.Linearizability.max_ops}).  Raises
    [Invalid_argument] unless [0 <= halts < n] and [ops_per_proc >= 0]. *)
val stress_queue : ?ops_per_proc:int -> n:int -> halts:int -> unit -> stress

(** All halts landed, survivors completed, history well-formed and
    linearizable. *)
val stress_passed : stress -> bool

val pp_stress : stress Fmt.t
