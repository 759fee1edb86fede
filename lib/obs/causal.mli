(** Causal invocation tracing for the universal construction and the
    wait-freedom auditor.

    Every traced invocation gets a process-global {e trace id}
    ({!issue}); the construction records its phase events —
    invoke/announce/claim/complete — and explicit {e help edges}
    (helper invocation → helped invocation, attributed through the
    recording domain's {!current} register) as slots in {!Profile}'s
    per-domain rings, the one event store.  The recording leaves three
    ways:

    - {!Profile.write}: the Chrome/Perfetto trace, where completed
      invocations are ["X"] slices and help edges are ["s"]/["f"] flow
      events (arrows between domain tracks), alongside any profiler
      spans under one timestamp rebase;
    - {!Profile.dump_jsonl}: the flight recorder — the rings' recent
      events as a JSONL post-mortem, written when a load check fails or
      the harness crashes;
    - {!Audit}: per-invocation own-step accounting checked against the
      construction's theoretical bound, help-chain statistics, and a
      DAG check over the (orientation-filtered) help edges — from the
      live recording or parsed back from a trace file.

    Tracing is sampled 1-in-[sample] by the operation's own sequence
    number (ticket or op counter), decided {e before} a trace id is
    issued — unsampled operations never touch the global id counter or
    domain-local state, so trace ids are dense over the traced
    operations.  The construction force-samples help-canary operations
    so cross-client edges are recorded even on boxes where domains
    rarely overlap.  A help edge performed outside any traced
    invocation of the recording domain carries helper [-1] (anonymous:
    counted and drawn, never chained).  When disabled, every entry
    point is a single load-and-branch.

    Concurrency contract: the record path ({!issue}, {!invoke},
    {!announce}, {!claim}, {!help}, {!complete}, {!meta}) is safe from
    any domain; {!enable} and {!reset} run at quiescence. *)

(** {1 Lifecycle} *)

(** Start sampling one invocation in [sample] (rounded up to a power of
    two) into rings of [ring_capacity] slots per domain.  Begins a
    fresh recording unless span recording ({!Profile.enable}) is on, in
    which case it joins that recording.  Raises [Invalid_argument] when
    [sample < 1]. *)
val enable : ?ring_capacity:int -> ?sample:int -> unit -> unit

(** Stop recording; the rings keep their contents for export. *)
val disable : unit -> unit

val enabled : unit -> bool

(** Drop all recorded events (spans included: it is {!Profile.reset}),
    registered objects and issued ids. *)
val reset : unit -> unit

(** The effective sampling period (power of two). *)
val sample_every : unit -> int

(** {1 Recording} (called by the construction) *)

(** Fresh trace id for a new invocation, also set as this domain's
    {!current}; [-1] when disabled.  Call only for operations that
    will actually be traced — decide with {!sampled} on the op's
    sequence number first. *)
val issue : unit -> int

(** Whether sequence number [seq] (a ticket or op counter, not a trace
    id) falls in the 1-in-k sample.  Test this {e before} {!issue}. *)
val sampled : int -> bool

(** The fused hot-path gate: the sampling mask while tracing, [-1]
    when disabled — [!trace_gate >= 0 && seq land !trace_gate = 0] is
    {!enabled} [&&] {!sampled} in one load, for per-operation sites
    where even two small calls are measurable. *)
val trace_gate : int ref

(** The trace id of the invocation this domain is currently executing
    ([-1] if none) — read by the help-edge recording sites to attribute
    the helper.  Retired (back to [-1]) when the domain records a
    {!complete}, so later help from this domain is anonymous. *)
val current : unit -> int

(** Register a served object: [n] processes, audited own-step
    [bound].  Kept outside the rings so it survives wraparound. *)
val meta : obj:string -> n:int -> bound:int -> unit

val invoke : obj:string -> trace:int -> pid:int -> unit
val announce : obj:string -> trace:int -> pid:int -> born:int -> unit

(** Claim consensus decided: [node] threads this invocation at
    linearization position [pos]. *)
val claim : obj:string -> trace:int -> node:int -> pos:int -> unit

(** The recording domain's invocation [helper] applied pending
    invocation [helped] (which linearizes at [pos]); [helper] is [-1]
    when the filler is not itself a traced invocation. *)
val help : obj:string -> helper:int -> helped:int -> pos:int -> unit

val complete :
  obj:string -> trace:int -> pos:int -> own_steps:int -> help_rounds:int -> unit

(** The construction's audited own-step bound for [n] processes
    ([2n+8]; see the derivation in the implementation).  Exposed so the
    construction, the auditor and the tests agree on one number. *)
val step_bound : n:int -> int

(** One short sleep (a real syscall, so the domain is descheduled even
    on a single core) — the help canary's parking primitive. *)
val backoff : unit -> unit

(** {1 Wait-freedom auditor} *)

module Audit : sig
  type violation = {
    v_trace : int;
    v_obj : string;
    v_pid : int;
    v_steps : int;
    v_bound : int;
  }

  type report = {
    objects : (string * int * int) list; (* name, n, audited bound *)
    invocations : int;
    completed : int;
    announces : int;
    claims : int;
    edges_seen : int;
    edges_kept : int; (* after the orientation filter *)
    edges_stale : int; (* lagging-replay echoes, dropped *)
    max_own_steps : int;
    max_help_rounds : int;
    depth_hist : (int * int) list; (* help-chain depth -> invocations *)
    max_depth : int;
    top_helpers : (int * int) list; (* helper trace id, out-edges;
                                       anonymous helpers excluded *)
    violations : violation list;
    unbounded : int; (* completed invocations whose object has no
                        registered bound *)
    dag_ok : bool;
  }

  (** Audit a raw recording (e.g. {!Profile.causal_snapshot}). *)
  val of_events : Profile.meta_entry list * Profile.event list -> report

  (** Audit the live recording. *)
  val of_recording : unit -> report

  (** Audit a trace file written by {!Profile.write}, parsed back from
      its JSON.  Raises [Invalid_argument] when the value is not a trace. *)
  val of_trace_json : Json.t -> report

  (** Fails closed: at least one completed invocation, every completed
      invocation's object has a registered bound, no bound violations,
      and the kept help edges form a DAG. *)
  val ok : report -> bool

  val pp : report Fmt.t
end
