(** The wait-free universal construction of §4.1: any sequential object
    from a fetch-and-cons list, by threading tagged invocations onto a
    shared log and replaying predecessors locally.  Verified by
    {!Explorer.check}: at every terminal, [check_witness] in the final
    log's order. *)

open Wfs_spec
open Wfs_sim

val log_name : string

(** Front-end process applying a fixed script of abstract operations. *)
val front_end : target:Object_spec.t -> pid:int -> script:Op.t list -> Process.t

(** Explorer configuration: one front-end per script over a shared
    fetch-and-cons log. *)
val config : target:Object_spec.t -> scripts:Op.t list array -> Explorer.config

(** The verdict on one terminal: the final log's order (oldest entry
    first) must linearize every process's decided responses to its
    script, by {!Replay.linearizes}. *)
val check_terminal :
  target:Object_spec.t -> scripts:Op.t list array -> Explorer.node ->
  (unit, string) result

(** {!check_terminal} on every terminal of every interleaving, through
    {!Explorer.check}. *)
val verify :
  ?max_states:int -> target:Object_spec.t -> scripts:Op.t list array -> unit ->
  Explorer.verdict

(** Run one schedule; also returns the induced abstract history of
    target operations for linearizability cross-checks. *)
val run :
  ?max_steps:int ->
  target:Object_spec.t ->
  scripts:Op.t list array ->
  schedule:Scheduler.t ->
  unit ->
  Runner.outcome * Wfs_history.History.t
