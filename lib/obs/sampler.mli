(** Periodic registry sampling from a dedicated domain.

    Every [interval_ms] the sampler takes a lock-free {!Metrics.dump}
    and publishes it by atomically swapping a fresh immutable ring
    (newest-first, capacity-truncated) into an [Atomic.t] — see DESIGN
    §5.10 for the memory model.  Optional consumers: an
    atomically-rewritten exposition file, a minimal blocking HTTP
    [/metrics] endpoint (stdlib [Unix] only, loopback) and one
    {!hook} that sees each consecutive pair of snapshots — the
    [--progress] heartbeat ({!progress}). *)

(** A timestamped snapshot: {!Clock.now_ns} at sample time plus the
    dumped instrument values. *)
type snap = { at_ns : int; values : (string * Metrics.dumped) list }

(** A consumer of the snapshot stream: [prev] is the snapshot taken
    just before [cur].  [final] is [true] only for the call {!stop}
    makes with the post-run snapshot. *)
type hook = final:bool -> prev:snap -> cur:snap -> unit

type t

(** [start ()] spawns the sampler domain and seeds the ring with one
    immediate snapshot.  [out_file] is rewritten atomically (tmp +
    rename) with the OpenMetrics exposition each interval; [port]
    additionally serves the newest exposition over HTTP on loopback
    from a second domain; [on_sample] runs on the sampler domain after
    every sample after the seed, then once more from {!stop}.  Raises
    [Invalid_argument] on a non-positive interval or capacity or a
    port outside 0–65535, and [Unix.Unix_error] if the port cannot be
    bound. *)
val start :
  ?registry:Metrics.registry ->
  ?interval_ms:int ->
  ?capacity:int ->
  ?out_file:string ->
  ?port:int ->
  ?on_sample:hook ->
  unit ->
  t

(** All retained snapshots, newest first. *)
val ring : t -> snap list

val latest : t -> snap option

(** Stop and join the sampler (and HTTP) domains, then take one final
    snapshot so short runs still leave complete end-of-run values in
    the ring and the file sink, and pass it to the hook with
    [~final:true].  The hook is not called after [stop] returns.
    Idempotence is not required of callers; call once. *)
val stop : t -> unit

(** {1 Heartbeat} *)

(** [heartbeat ~label ~crashes ~t0_ns ~final ~prev ~cur] is one
    [--progress] line:

    {v [wfs census] states=1503232 180k states/s frontier=0 pruned=2163957 elapsed=8.0s v}

    [states] is [explorer.states] in [cur] (fed by the explorer and the
    solver, so exact in the post-run snapshot); once the load harness
    has fed [service.ops] the line counts those instead, as
    [ops=N ... ops/s], without [frontier].  The rate is per interval
    ([prev] to [cur]), or over the whole run since [t0_ns] on the
    [final] line, which drops [frontier] and ends in [done]; [pruned]
    sums [explorer.por.pruned] and [solver.cutoff.sleep] and shows when
    non-zero; [crashes<=k] shows when [crashes > 0]. *)
val heartbeat :
  label:string ->
  crashes:int ->
  t0_ns:int ->
  final:bool ->
  prev:snap ->
  cur:snap ->
  string

(** [progress ~label ~crashes ()] is the [--progress] hook: it prints
    {!heartbeat} to stderr, timing from its own creation, and when
    {!Profile} is recording writes the [progress.states] (under load
    [progress.ops]), [progress.rate] and [progress.pruned] counter
    tracks. *)
val progress : label:string -> crashes:int -> unit -> hook

(** {1 HTTP response framing} — pure, exposed for the unit tests. *)

(** The full [/metrics] response for [body]: status line, content type,
    an explicit [Content-Length] and [Connection: close], a blank line,
    then the body verbatim — so scrapers know exactly where the body
    ends and never wait on keep-alive. *)
val http_response_of_body : string -> string

(** Whether a received request prefix contains the header-block
    terminator (CRLFCRLF) — the point at which the endpoint may safely
    respond and half-close. *)
val request_complete : string -> bool
