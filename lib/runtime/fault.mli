(** Deterministic crash-stop fault injection for the multicore runtime.

    Wait-freedom is tolerance of up to [n-1] undetected halting failures
    (§2); the simulator checks that exhaustively
    ([Wfs_sim.Explorer ~crashes]), and this module injects the same
    adversary into real domains: a plan places permanent halts at
    {e operation boundaries} — the points just before and just
    after a shared-object operation, where a crash-stop failure is
    observable.  Everything is plan-driven and deterministic, so a
    failing crash run ({!Service.Load.run} [~halts]) replays exactly. *)

(** A halt at the [boundary]-th boundary crossing of process [pid]
    (crossings are numbered from 0; an operation run under {!protect}
    crosses two): the process goes permanently down — the crossing
    raises {!Halted}, and so does every later one. *)
type rule = { pid : int; boundary : int }

(** Raised at a boundary crossing of a halted process; carries the pid.
    Unwind the domain: the process must never take another step; its
    in-flight operation stays pending ({!Service.Load.run} records it
    with no response). *)
exception Halted of int

(** The injector: per-process boundary counters plus the plan. *)
type t

(** [create ~n plan] validates that every rule names a pid in
    [0..n-1].  Raises [Invalid_argument] otherwise. *)
val create : n:int -> rule list -> t

(** Announce a boundary crossing of [pid]: applies any matching rule.
    Feeds the [fault.boundaries] (hot-gated) and [fault.halts]
    metrics.  Raises {!Halted} if [pid] halts here or
    already halted. *)
val boundary : t -> pid:int -> unit

(** [protect t ~pid f] runs [f] bracketed by two {!boundary}
    crossings: a halt at the first models a crash before the
    operation's effect, at the second a crash after the effect but
    before the response — the two faces of a pending operation. *)
val protect : t -> pid:int -> (unit -> 'a) -> 'a

(** Pids halted so far, ascending. *)
val halted : t -> int list
