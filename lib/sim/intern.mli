(** Hash-consing of state keys into dense [int] ids.

    One hash lookup per {!S.intern} call; every structure downstream of
    the interner (visited colors, DP bounds, strategy tables) becomes
    int-keyed or array-indexed.  Ids are assigned densely from 0 in
    first-intern order, so they double as array indices.

    One table implementation ({!Make}) serves three key types: the
    solver's [Value.t] views and environments (the toplevel instance,
    which also keeps the decode arena strategy extraction needs), its
    flat [int array] positions ({!Ints}), and the explorer's packed
    joint-state strings ({!Strings}).  {!Sharded} is the explorer's
    lock-striped table of the same strings, shared across domains. *)

open Wfs_spec

module type S = sig
  type key
  type t

  (** [create ?size_hint ()] — [size_hint] pre-sizes the id table (and
      the toplevel instance's arena), e.g. from an expected key count. *)
  val create : ?size_hint:int -> unit -> t

  (** [intern t k] returns the id of [k], allocating the next dense id
      on first sight; [intern t k = intern t k'] iff [k] and [k'] are
      equal keys.  The key is captured on first sight: callers must not
      mutate it after interning. *)
  val intern : t -> key -> int

  (** Number of distinct keys interned (= the next fresh id). *)
  val size : t -> int

  (** {1 Instrumentation counters} *)

  val lookups : t -> int
  val hits : t -> int
end

(** {!S} with {!S.intern} split in two, for callers that decide only
    after a miss whether, or in what form, the key is to be kept. *)
module type Split = sig
  include S

  (** [find t k] is the id of [k] if it is interned, else [-1]; it
      counts as one lookup, and as a hit when found. *)
  val find : t -> key -> int

  (** [add t k] stores a key that {!find} just missed and returns its
      fresh id.  The key is captured: callers must not mutate it
      afterwards. *)
  val add : t -> key -> int
end

module Make (K : Hashtbl.HashedType) : Split with type key = K.t

(** [Value.t] keys under the full-depth {!Value.hash_full}, decodable. *)
include S with type key = Value.t

(** [value t id] decodes an id back to its key; raises
    [Invalid_argument] on an id never returned by [intern t]. *)
val value : t -> int -> Value.t

(** Small [int array] keys, hashed FNV-1a over the elements. *)
module Ints : Split with type key = int array

(** Packed string keys (see [Explorer.key]). *)
module Strings : Split with type key = string

(** Lock-striped interner of packed string keys, shared across domains.

    Ids are dense and unique but {e schedule-dependent} in order —
    unlike {!S.intern} above, two runs may assign different ids to the
    same key.  What is deterministic is the claim: for each key exactly
    one claim across all domains returns [fresh = true].  The parallel
    explorer uses that claim bit as its visited set, and never relies
    on id order.

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

  (** [intern_batch t keys] claims every key of one expansion in a
      single pass, taking each stripe's lock at most once per call.
      [(intern_batch t keys).(i)] is [(id, fresh)] for [keys.(i)]:
      [fresh] is [true] on exactly the first claim of that key across
      all domains, within-batch duplicates included (the earlier
      position claims it). *)
  val intern_batch : t -> string array -> (int * bool) array

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
end
