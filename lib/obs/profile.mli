(** The event recorder: one per-domain ring holding every event the
    library records — profiler spans, instants and counters, and the
    causal tracer's invocation phases and help edges — with one Chrome
    trace_event exporter ({!write}) and one JSONL dump ({!dump_jsonl}).

    {!span}/{!begin_}/{!end_} record named, timestamped spans; {!Causal}
    records through the lower section of this interface.  {!write}
    serializes everything recorded so far as one Chrome trace-event
    JSON file ([{"traceEvents": [...]}]) that loads directly in
    Perfetto ([ui.perfetto.dev]) or [chrome://tracing], with [pid] =
    the OS process and one [tid] row per OCaml domain.

    Cost model:

    - disabled (the default), every entry point is one branch on a
      plain ref — argument thunks are not forced, no clock is read,
      nothing allocates beyond the closure at the call site;
    - enabled, a span costs two {!Clock.now_ns} reads and one ring
      slot; a causal event costs one clock read and one slot and
      allocates nothing.  No lock is taken on the record path: each
      domain writes only its own ring.

    Ring semantics: a completed span occupies exactly {e one} ring slot
    (written at [end_] time), so wraparound drops whole spans, oldest
    first — it can never tear a span into an unbalanced begin/end pair.
    Spans still open when the recording is written are dropped for the
    same reason.

    Two switches feed the one store: span recording ({!enable}) and
    causal sampling ({!Causal.enable}).  Starting either while the
    other is off begins a fresh recording; starting it while the other
    is on joins the recording in progress (same rings, same capacity),
    so neither discards the other's records.

    Concurrency contract: the record path ({!span}, {!begin_}, {!end_},
    {!complete}, {!instant}, {!counter} and the causal hooks) is safe
    from any domain concurrently.  {!enable}, {!reset}, {!to_json},
    {!write} and {!dump_jsonl} must run at {e quiescence} — no other
    domain inside an instrumented region — which is why the CLI and
    pool flush only after the pool has joined (the flight-recorder
    dump tolerates stragglers: a torn read costs at most one event). *)

type args = (string * Json.t) list

(** True between {!enable} and {!disable}.  The one-branch gate. *)
val enabled : unit -> bool

(** [enable ?ring_capacity ()] turns span recording on.
    [ring_capacity] (default 65536) is the per-domain slot budget; when
    a domain overflows it, its oldest slots are dropped (see
    {!dropped}).  Begins a fresh recording unless causal sampling is
    on, in which case it joins that recording and keeps its
    capacity. *)
val enable : ?ring_capacity:int -> unit -> unit

(** Stop span recording.  Recorded data is retained until {!reset} or
    the next fresh recording, so it can still be written out. *)
val disable : unit -> unit

(** Drop everything recorded — spans and causal events, registered
    objects and issued trace ids — in every domain's ring.  Quiescence
    required. *)
val reset : unit -> unit

(** [span ?cat ?args name f] runs [f] inside a span.  The [args] thunk
    is forced only when profiling is enabled.  Exceptions close the
    span and propagate. *)
val span : ?cat:string -> ?args:(unit -> args) -> string -> (unit -> 'a) -> 'a

(** Open a span on the calling domain's stack.  Every [begin_] must be
    matched by an {!end_} on the same domain ([span] does this for
    you). *)
val begin_ : ?cat:string -> ?args:(unit -> args) -> string -> unit

(** Close the most recent open span on the calling domain.  No-op when
    the stack is empty (e.g. profiling was enabled mid-span). *)
val end_ : unit -> unit

(** [complete ?cat ?args name ~t0_ns] records a span that started at
    [t0_ns] and ends now, bypassing the begin/end stack — for waits
    whose start predates knowing whether they are interesting (pool
    idle time).  [t0_ns] must not predate any event already recorded
    by this domain, or the exported timeline clamps it. *)
val complete : ?cat:string -> ?args:(unit -> args) -> string -> t0_ns:int -> unit

(** A zero-duration instant event on the calling domain's row. *)
val instant : ?cat:string -> ?args:(unit -> args) -> string -> unit

(** [counter name values] records a trace counter sample (rendered by
    Perfetto as a track of stacked series). *)
val counter : string -> (string * float) list -> unit

(** Slots currently buffered across all domains, both kinds. *)
val recorded : unit -> int

(** Slots lost to ring wraparound across all domains. *)
val dropped : unit -> int

(** The whole recording as one Chrome trace-event JSON object.
    [traceEvents] holds [M] process/thread-name metadata (one
    [thread_name] row per recording domain), balanced [B]/[E] span
    pairs, [i] instants, [C] counters, and the causal records: each
    completed invocation an ["X"] slice (cat ["causal.op"]), each help
    edge an ["s"]/["f"] flow pair drawn as an arrow between domain
    tracks, announce/claim/pending phases as instants, and one
    ["causal.meta"] instant per registered object carrying [n] and the
    audited bound (what [wfs trace] reads back).  Timestamps are
    microseconds relative to the earliest event; per [tid] they are
    non-decreasing and spans are properly nested. *)
val to_json : unit -> Json.t

(** [write path] = {!to_json} pretty-printed to [path]. *)
val write : string -> unit

(** [dump_jsonl path] writes the recording as JSONL — registered
    objects first, then every slot time-sorted, one JSON object per
    line with a ["kind"] field (["span"], ["instant"], ["counter"], or
    a causal phase).  This is the crash flight recorder's post-mortem
    ([wfs load] writes it when a run fails).  Returns the number of
    lines. *)
val dump_jsonl : string -> int

(** {1 Causal slots}

    The store half of {!Causal}, which owns the sampling policy, the
    construction hooks and the auditor.  Call sites use {!Causal}. *)

type kind = Invoke | Announce | Claim | Help | Complete | Span | Instant | Counter

(** One decoded slot, recorded at [ts] on domain [dom] as the domain's
    [seq]-th event.  For the causal kinds, [obj] is the object label,
    [trace] the invocation's trace id, and [a]/[b]/[c] are
    kind-specific: Invoke a=pid; Announce a=pid, b=born; Claim a=node,
    b=position; Help [trace]=helped, a=helper, b=helped's position;
    Complete a=position, b=own steps, c=help rounds.  For spans,
    instants and counters, [obj] is the event name, [trace] the
    interned category id (-1 for none) and [args] the args or counter
    values; a span's [ts] is its end, [a] its start and [b] its
    begin's sequence number. *)
type event = {
  kind : kind;
  ts : int;
  dom : int;
  obj : string;
  trace : int;
  a : int;
  b : int;
  c : int;
  seq : int;
  args : args;
}

type meta_entry = { m_obj : string; m_n : int; m_bound : int }

(** The sampling mask while causal sampling is on, [-1] when off. *)
val trace_gate : int ref

(** Turn causal sampling on with sampling mask [mask] (period - 1). *)
val start_causal : ?ring_capacity:int -> mask:int -> unit -> unit

(** The last configured sampling period (survives the switch-off, so
    the exporter can still report it). *)
val sample_every : unit -> int

(** Append one causal slot (a causal [kind]) on the calling domain,
    ungated: callers test {!trace_gate}.  A [Complete] retires the
    domain's {!current} register. *)
val push_causal : kind -> obj:string -> trace:int -> int -> int -> int -> unit

(** A fresh process-global trace id, also set as this domain's
    {!current}; [-1] when causal sampling is off. *)
val issue : unit -> int

(** The trace id of this domain's in-flight invocation, [-1] if none. *)
val current : unit -> int

(** Register (or re-register) a served object; kept outside the rings
    so it survives wraparound. *)
val add_meta : meta_entry -> unit

(** Registered objects (creation order) and all causal events (grouped
    by domain, oldest first within each). *)
val causal_snapshot : unit -> meta_entry list * event list
