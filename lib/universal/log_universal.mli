(** The wait-free universal construction of §4.1: any sequential object
    from a fetch-and-cons list, by threading tagged invocations onto a
    shared log and replaying predecessors locally. *)

open Wfs_spec
open Wfs_sim

val log_name : string

(** Front-end process applying a fixed script of abstract operations. *)
val front_end : target:Object_spec.t -> pid:int -> script:Op.t list -> Process.t

(** Explorer configuration: one front-end per script over a shared
    fetch-and-cons log. *)
val config : target:Object_spec.t -> scripts:Op.t list array -> Explorer.config

(** Responses each process must receive if the final log (newest first)
    is the linearization order. *)
val expected_responses :
  target:Object_spec.t -> n:int -> Value.t list -> Value.t list array

type verification = {
  ok : bool;
  states : int;
  terminals : int;
  wait_free : bool;
  failure : string option;
}

(** Exhaustively check, over every interleaving, that every process's
    responses match the final log's dictation — linearizability with the
    fetch-and-cons order as linearization order.  [ok] also requires
    [wait_free]: a cyclic, stuck or [max_states]-capped search is never
    [ok]. *)
val verify :
  ?max_states:int -> target:Object_spec.t -> scripts:Op.t list array -> unit ->
  verification

(** Run one schedule; also returns the induced abstract history of
    target operations for linearizability cross-checks. *)
val run :
  ?max_steps:int ->
  target:Object_spec.t ->
  scripts:Op.t list array ->
  schedule:Scheduler.t ->
  unit ->
  Runner.outcome * Wfs_history.History.t
