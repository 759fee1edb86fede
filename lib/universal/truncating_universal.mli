(** The strongly-wait-free universal construction (§4.1): log entries are
    operations or states; each front-end truncates its own entry's cdr
    with the reconstructed state, bounding every replay by n.  Verified
    by {!Explorer.check}: at every terminal, the replay bound and
    [check_witness] in the ghost log's order. *)

open Wfs_spec
open Wfs_sim

val log_name : string

(** The representation object: fetch-and-cons plus destructive
    [truncate], carrying a ghost (never-truncated) audit log used only
    for verification. *)
val log_object : ?name:string -> unit -> Object_spec.t

val fac : Value.t -> Op.t
val truncate : key:Value.t -> Value.t -> Op.t

val front_end : target:Object_spec.t -> pid:int -> script:Op.t list -> Process.t
val config : target:Object_spec.t -> scripts:Op.t list array -> Explorer.config

(** The verdict on one terminal, beside the worst replay cost any
    process paid there: every replay stays within n operations, and
    the ghost log's order linearizes every process's decided responses
    to its script ({!Replay.linearizes}). *)
val check_terminal :
  target:Object_spec.t -> scripts:Op.t list array -> Explorer.node ->
  int * (unit, string) result

(** {!check_terminal} on every terminal of every interleaving, through
    {!Explorer.check}, paired with the worst replay cost seen at any
    terminal. *)
val verify :
  ?max_states:int -> target:Object_spec.t -> scripts:Op.t list array -> unit ->
  Explorer.verdict * int

val run :
  ?max_steps:int ->
  target:Object_spec.t ->
  scripts:Op.t list array ->
  schedule:Scheduler.t ->
  unit ->
  Runner.outcome
