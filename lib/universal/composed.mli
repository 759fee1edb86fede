(** Theorem 26 end to end: consensus object → fetch-and-cons
    (Figure 4-5) → any sequential object (§4.1 log replay), composed and
    exhaustively verified by {!Explorer.check}: at every terminal,
    [check_witness] against the target in the longest full view's
    order. *)

open Wfs_spec
open Wfs_sim

(** The Figure 4-5 configuration over tagged invocations. *)
val config : scripts:Op.t list array -> Explorer.config

(** The verdict on one terminal: each decided (item, view) pair
    responds with its operation applied after replaying its view, and
    {!Consensus_fac.longest_view}'s order must linearize those responses
    to every process's script on [target] ({!Replay.linearizes}). *)
val check_terminal :
  target:Object_spec.t -> scripts:Op.t list array -> Explorer.node ->
  (unit, string) result

(** {!check_terminal} on every terminal of every interleaving, through
    {!Explorer.check}. *)
val verify :
  ?max_states:int -> target:Object_spec.t -> scripts:Op.t list array -> unit ->
  Explorer.verdict

(** One schedule; returns the outcome plus (pid, seq, op, result)
    tuples. *)
val run :
  ?max_steps:int ->
  target:Object_spec.t ->
  scripts:Op.t list array ->
  schedule:Scheduler.t ->
  unit ->
  Runner.outcome * (int * int * Op.t * Value.t) list
