(** Fetch-and-cons from rounds of n-process consensus (§4.2, Figure 4-5)
    — the construction behind Theorem 26's universality test.  Verified
    by {!Explorer.check}: at every terminal, [check_witness] against the
    fetch-and-cons list in the longest full view's order. *)

open Wfs_spec
open Wfs_sim

val regs : string
val cons : string

(** Result view marker used when an item unexpectedly fails to appear in
    the winning preference (flagged by verification; never produced in a
    correct run). *)
val missing_marker : Value.t

(** Front-end performing one fetch-and-cons per script item; items are
    tagged (pid, seq).  A process decides the list of (item, returned
    view) pairs. *)
val front_end : n:int -> pid:int -> script:Op.t list -> Process.t

(** Consensus rounds provisioned for the given scripts. *)
val rounds_needed : n:int -> scripts:Op.t list array -> int

val config : scripts:Op.t list array -> Explorer.config

(** The order a terminal's decisions fix: the longest full view (an
    item prepended to the view returned for it), most recent first. *)
val longest_view : Value.t list array -> Value.t list

(** The verdict on one terminal: the decided views must be linearizable
    as a fetch-and-cons list in {!longest_view}'s order — each view
    exactly the items threaded before its own ({!Replay.linearizes}).
    That is Lemma 24's coherence (any two views suffix-related) with
    every item on the list exactly once. *)
val check_terminal :
  scripts:Op.t list array -> Explorer.node -> (unit, string) result

(** {!check_terminal} on every terminal of every interleaving, through
    {!Explorer.check}. *)
val verify :
  ?max_states:int -> scripts:Op.t list array -> unit -> Explorer.verdict

val run :
  ?max_steps:int -> scripts:Op.t list array -> schedule:Scheduler.t -> unit ->
  Runner.outcome

(** (pid, item, full view) triples from a completed run. *)
val views_of_outcome : Runner.outcome -> (int * Value.t * Value.t list) list
