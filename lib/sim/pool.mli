(** A reusable OCaml 5 domain pool with a shared job cursor and a
    deterministic join.

    The pool owns [size - 1] worker domains plus the calling domain,
    which participates in every batch.  {!parallel_map} hands out job
    indices through one atomic fetch-and-add cursor per batch: every
    member claims the next unclaimed index until none is left, so jobs
    start in index order and an unbalanced batch (one giant
    exploration next to many small ones) still keeps every domain busy.
    Results are joined {e by job index}, so the output order — and,
    when the jobs themselves are deterministic, the output content — is
    independent of which domain ran what.

    A pool of size 1 spawns no domains at all: {!parallel_map} then
    runs the jobs inline, sequentially, in index order — byte-identical
    to not having a pool.  Likewise a {!parallel_map} issued from
    inside a running job (nested parallelism) executes inline rather
    than deadlocking on the pool's own workers.

    Each batch feeds the default [Wfs_obs.Metrics] registry:
    [pool.batches], [pool.jobs] and the [pool.domains] gauge, plus
    per-member labelled series ([pool.shard.jobs{shard=i}],
    [pool.shard.busy_ns{shard=i}], [pool.shard.idle_ns{shard=i}], the
    [pool.shard.job_ns{shard=i}] duration histogram and the
    [pool.shard.states{shard=i}] claimed gauge) so a live scrape can
    attribute imbalance to a specific domain.  Busy time is wall time
    inside jobs; idle time is a worker's park between batches and the
    leader's wait in the {!parallel_map} join.  Batches that run inline
    feed none of these. *)

type t

(** [create ?domains ()] spawns [domains - 1] worker domains
    ([Domain.recommended_domain_count ()] by default, clamped to
    [\[1, 128\]]).  The workers idle on a condition variable between
    batches — creating a pool is cheap enough to do once per CLI
    invocation, but pools are reusable and meant to be shared across
    many batches. *)
val create : ?domains:int -> unit -> t

(** Number of domains that execute a batch, including the caller. *)
val size : t -> int

(** [parallel_map t f arr] computes [Array.map f arr] across the pool.
    Element [i] of the result is always [f arr.(i)] — the join is by
    index, deterministic regardless of scheduling.  If one or more jobs
    raise, the batch still runs to completion and the exception of the
    {e lowest-indexed} failing job is re-raised (again deterministic).
    Safe to call repeatedly; not safe to call concurrently from two
    domains on the same pool (the CLI and bench drive it from one
    leader).  Calls from inside a job run inline. *)
val parallel_map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [map_heaviest_first pool ~weight f jobs] is [Array.map f jobs].
    With a pool of more than one domain the jobs are started
    heaviest-first by [weight] (ties in plan order) — a heavy job
    dispatched last leaves every other domain idle behind it — and the
    results are put back in plan order.  With no pool, or a size-1
    pool, the jobs run on the caller in plan order.  [weight] is a
    scheduling rank only; only the relative order matters. *)
val map_heaviest_first :
  t option -> weight:('a -> float) -> ('a -> 'b) -> 'a array -> 'b array

(** Terminate and join the worker domains.  Idempotent.  Using the pool
    after [shutdown] raises [Invalid_argument]. *)
val shutdown : t -> unit

(** [with_pool ?domains f] — create, run [f], always shut down. *)
val with_pool : ?domains:int -> (t -> 'a) -> 'a

(** {1 Shard attribution}

    Engines running inside pool jobs (the solver, the explorer) report
    coarse progress through these so per-domain load shows up in live
    telemetry. *)

(** The pool member index of the calling domain: 0 for the leader and
    for domains outside any pool, the worker index otherwise. *)
val self : unit -> int

(** [note_states n] adds [n] to the calling member's
    [pool.shard.states{shard=...}] gauge.  Meant to be called from
    batched flush points (every few thousand states), not per state. *)
val note_states : int -> unit
