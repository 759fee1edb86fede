(** Nanosecond clocks.

    {!now_ns} wraps [Unix.gettimeofday] and clamps it so successive
    reads never go backwards (wall clocks may); trace and sampler
    timestamps use it.  {!mono_ns} reads CLOCK_MONOTONIC at nanosecond
    resolution without shared state; use it to time short spans such
    as per-operation latencies. *)

(** Nanoseconds since an arbitrary epoch; non-decreasing across calls,
    including calls from different domains. *)
val now_ns : unit -> int

(** Epoch seconds (as returned by [Unix.gettimeofday]) to integer
    nanoseconds.  Computed from the whole-second and fractional parts
    separately: epoch nanoseconds exceed the 53-bit double mantissa, so
    a single [*. 1e9] multiplication would quantize timestamps to
    ~512 ns and corrupt sub-microsecond spans.  Exposed for the
    precision regression tests. *)
val of_gettimeofday : float -> int

(** CLOCK_MONOTONIC in nanoseconds since an arbitrary, boot-relative
    epoch: nanosecond resolution, never decreasing, no cross-domain
    synchronization.  Only differences of two reads are meaningful. *)
val mono_ns : unit -> int

(** [elapsed_ns f] runs [f] and returns its result with the elapsed
    nanoseconds, timed with {!mono_ns}. *)
val elapsed_ns : (unit -> 'a) -> 'a * int
