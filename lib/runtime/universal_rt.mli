(** The universal construction on multicore OCaml: any sequential object
    made linearizable and lock-free / wait-free from compare-and-swap
    (§4, Theorem 26's practical payoff). *)

module type SEQ = sig
  type state
  type op
  type res

  val init : state
  val apply : state -> op -> state * res
end

module type S = sig
  type t
  type op
  type res

  val create : unit -> t
  val apply : t -> op -> res
end

(** Snapshot-node CAS log: zero replay, lock-free. *)
module Lock_free (Seq : SEQ) : sig
  type t
  type op = Seq.op
  type res = Seq.res

  val create : unit -> t
  val apply : t -> op -> res

  (** Number of operations applied so far. *)
  val length : t -> int

  (** Current abstract state (linearizes at the read of the head). *)
  val read : t -> Seq.state
end

(** Announce-and-help universal object (Herlihy), upgraded for sustained
    service traffic: every consensus round threads a {e batch} node
    carrying all currently-announced invocations (helping amortizes
    across clients; a per-invocation claim consensus guarantees
    exactly-once application), and the log is truncated behind periodic
    state snapshots — the paper's §4.1 strongly-wait-free variant — so
    at most [window] nodes stay reachable.  Every operation still
    completes within a bounded number of rounds even if its process
    stalls: Herlihy's deterministic helping remains as the fallback for
    starving invocations. *)
module Wait_free (Seq : SEQ) : sig
  type t
  type op = Seq.op
  type res = Seq.res

  (** [create ?label ?canary ?window ~n ()] builds an object for
      processes [0..n-1]; every [window]-th log node (default 32)
      carries a state snapshot and severs the log behind it.

      [label] names the object in causal trace events (default
      ["universal"]); when {!Wfs_obs.Causal} is enabled at creation the
      object registers its [n] and audited own-step bound
      ({!Wfs_obs.Causal.step_bound}) for the wait-freedom auditor.

      [canary > 0] (meaningful only while causal tracing is enabled)
      routes every [canary]-th ticket through the announce + help slow
      path with a short bounded park after announcing, so a concurrent
      client's collect threads it — guaranteeing recorded cross-client
      help edges even on machines where domains time-slice and the
      fast path never loses a race.  Canary invocations are
      force-sampled; [0] (the default) disables the canary and leaves
      the hot path untouched. *)
  val create : ?label:string -> ?canary:int -> ?window:int -> n:int -> unit -> t

  (** [apply t ~pid op]; [pid] must be in [0..n-1] and unique per
      concurrent caller. *)
  val apply : t -> pid:int -> op -> res

  (** Like {!apply}, also returning the operation's position in the
      linearization order (0-based); feeding every completed
      operation's [(op, res, pos)] to a sequential replay is the
      differential check used by the tests and the load harness. *)
  val apply_pos : t -> pid:int -> op -> res * int

  (** Operations threaded so far (= {!Lock_free.length} for the same
      history). *)
  val length : t -> int

  (** Current abstract state (linearizes at the read of the frontier). *)
  val read : t -> Seq.state

  (** Log nodes still reachable behind the frontier — stays within the
      truncation window (transiently up to twice that while a snapshot
      fill is in flight). *)
  val retained : t -> int

  (** §4.1 reclamation watermark: the oldest log position an in-flight
      operation announced at (the frontier position when idle).  No
      process can still reference a node below it. *)
  val watermark : t -> int

  (** Announce tickets issued by this object (a per-object counter —
      two objects issue independent tickets). *)
  val tickets_issued : t -> int

  val window : t -> int
end

(** Mutex baseline — the locking discipline the paper's introduction
    argues against. *)
module Locked (Seq : SEQ) : sig
  type t
  type op = Seq.op
  type res = Seq.res

  val create : unit -> t
  val apply : t -> op -> res
  val read : t -> Seq.state
end
