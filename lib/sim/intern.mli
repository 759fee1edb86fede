(** Hash-consing of [Value.t] state keys into dense [int] ids.

    One {!Value.hash_full} lookup per {!intern} call; every structure
    downstream of the interner (visited colors, DP bounds, strategy
    tables) becomes int-keyed or array-indexed.  Ids are assigned
    densely from 0 in first-intern order, so they double as array
    indices. *)

open Wfs_spec

type t

(** [create ?size_hint ()] — [size_hint] pre-sizes the id table and
    arena (e.g. from an expected state count). *)
val create : ?size_hint:int -> unit -> t

(** [intern t v] returns the id of [v], allocating the next dense id on
    first sight.  [intern t v = intern t w] iff [Value.equal v w]. *)
val intern : t -> Value.t -> int

(** Id of [v] if already interned, without allocating one. *)
val find_opt : t -> Value.t -> int option

(** [value t id] decodes an id back to its key; raises
    [Invalid_argument] on an id never returned by [intern t]. *)
val value : t -> int -> Value.t

(** Number of distinct keys interned (= the next fresh id). *)
val size : t -> int

(** {1 Instrumentation counters} *)

val lookups : t -> int
val hits : t -> int

(** Occupancy snapshot of an id table, for sizing downstream structures
    (e.g. stripe counts for {!Sharded}) and for rehash diagnostics. *)
type table_stats = {
  entries : int;  (** distinct keys interned *)
  buckets : int;  (** hash-table buckets allocated *)
  load : float;  (** [entries /. buckets] *)
  max_bucket : int;  (** longest collision chain *)
}

val stats : t -> table_stats

(** Hash-consing of small [int array] keys to dense ids — same contract
    as {!intern} ([intern t a = intern t b] iff the arrays are equal
    elementwise), with a dedicated FNV hash over the elements and no
    decode arena.  Used by the solver's transposition table, which keys
    game positions by flat int encodings. *)
module Ints : sig
  type t

  val create : ?size_hint:int -> unit -> t

  (** The array is captured as the table key on first sight: callers
      must not mutate it after interning. *)
  val intern : t -> int array -> int

  (** Number of distinct keys interned (= the next fresh id). *)
  val size : t -> int
end

(** Lock-striped interner shared across domains.

    Ids are dense and unique but {e schedule-dependent} in order —
    unlike {!intern} above, two runs may assign different ids to the
    same key.  What is deterministic is the claim: for each key exactly
    one [intern] call across all domains returns [fresh = true].  The
    parallel explorer uses that claim bit as its visited set, and never
    relies on id order.

    Live telemetry: every 1024 lookups a stripe flushes its deltas to
    the global [intern.lookups]/[intern.hits] counters (amortized cost:
    two atomic adds per thousand interns), and each [try_lock] miss
    bumps [intern.contention] plus the per-stripe
    [intern.stripe.contention{stripe=i}] series — mid-run scrapes can
    pin contention on a specific stripe. *)
module Sharded : sig
  type t

  (** [create ?stripes ?size_hint ()] — [stripes] (default 61, clamped
      to [\[1, 4093\]], prime recommended) sets lock granularity;
      [size_hint] pre-sizes the per-stripe tables from an expected
      total key count. *)
  val create : ?stripes:int -> ?size_hint:int -> unit -> t

  (** [intern t v] returns [(id, fresh)]: [fresh] is [true] on exactly
      the first intern of [v] across all domains. *)
  val intern : t -> Value.t -> int * bool

  (** [intern_batch t keys] claims every key of one expansion in a
      single pass, taking each stripe's lock at most once per call
      instead of once per key; [(intern_batch t keys).(i)] has the same
      (id, fresh) meaning as [intern t keys.(i)], with within-batch
      duplicates resolving exactly as repeated [intern] calls would. *)
  val intern_batch : t -> Value.t array -> (int * bool) array

  val find_opt : t -> Value.t -> int option

  (** Distinct keys interned so far (= the next fresh id). *)
  val size : t -> int

  (** Push every stripe's unflushed lookups and hits to the global
      counters.  Call once the table is quiescent, so they end exact. *)
  val flush : t -> unit

  val lookups : t -> int
  val hits : t -> int

  (** Number of lock acquisitions that found the stripe already held by
      another domain (a [try_lock] miss).  High contention relative to
      {!lookups} says the stripe count is too low for the fan-out. *)
  val contention : t -> int

  val stats : t -> table_stats
end
