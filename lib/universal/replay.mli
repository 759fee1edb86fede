(** Tagged log entries and deterministic replay (§4.1). *)

open Wfs_spec

type entry = Op of { pid : int; seq : int; op : Op.t } | State of Value.t

val op_entry : pid:int -> seq:int -> Op.t -> Value.t
val state_entry : Value.t -> Value.t
val decode_entry : Value.t -> entry
val entry_op : Value.t -> Op.t option

(** [reconstruct spec log] replays the log (most recent first), starting
    from the newest state entry (or the initial state).  Returns the
    state and the number of operations replayed. *)
val reconstruct : Object_spec.t -> Value.t list -> Value.t * int

(** [response spec log op] is [(result, post_state, replayed)]: the
    response [op] receives when the log of its predecessors is [log]. *)
val response : Object_spec.t -> Value.t list -> Op.t -> Value.t * Value.t * int

(** Each process's decided list at a terminal; [Error] names a process
    that decided a non-list or did not decide. *)
val decisions : Value.t option array -> (Value.t list array, string) result

(** [linearizes spec ~order ~ops ~results] holds when process [pid]'s
    responses [results.(pid)] to its operations [ops.(pid)] are those
    of replaying [spec] in [order] — a log of {!op_entry} tags, most
    recent first, each operation placed where its (pid, seq) tag sits.
    It is {!Wfs_history.Linearizability.check_witness} with every
    operation invoked and responding at time 0, so only the order is
    judged.  An operation missing from [order], an entry twice in it
    and an entry that tags no operation are rejected, as is a process
    whose response count differs from its operation count. *)
val linearizes :
  Object_spec.t ->
  order:Value.t list ->
  ops:Op.t list array ->
  results:Value.t list array ->
  (unit, string) result
