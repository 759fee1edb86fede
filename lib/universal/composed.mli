(** Theorem 26 end to end: consensus object → fetch-and-cons
    (Figure 4-5) → any sequential object (§4.1 log replay), composed and
    exhaustively verified. *)

open Wfs_spec
open Wfs_sim

(** The Figure 4-5 configuration over tagged invocations. *)
val config : scripts:Op.t list array -> Explorer.config

type verification = {
  ok : bool;
  states : int;
  terminals : int;
  failure : string option;
}

(** Explore every interleaving; the longest coherent view defines the
    linearization, and every process's replay-derived responses must
    match it.  [ok] also requires the exploration to be wait-free: a
    cyclic, stuck or [max_states]-capped search is never [ok]. *)
val verify :
  ?max_states:int -> target:Object_spec.t -> scripts:Op.t list array -> unit ->
  verification

(** One schedule; returns the outcome plus (pid, seq, op, result)
    tuples. *)
val run :
  ?max_steps:int ->
  target:Object_spec.t ->
  scripts:Op.t list array ->
  schedule:Scheduler.t ->
  unit ->
  Runner.outcome * (int * int * Op.t * Value.t) list
