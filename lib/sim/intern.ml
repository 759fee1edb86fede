(* Hash-consing of state keys.

   The explorer and the solver key their visited sets, memo tables and
   strategy tables by structural [Value.t] encodings of joint states.
   Interning maps each distinct key to a dense [int] id exactly once —
   one full-depth hash per lookup against an id table — after which
   every downstream structure (colors, DP bounds, strategy entries) is
   int-keyed or a plain array indexed by id.

   The arena keeps the id -> value direction so interned keys can be
   decoded again (strategy extraction, debugging). *)

open Wfs_spec

type t = {
  ids : int Value.Tbl.t;
  mutable arena : Value.t array;  (* id -> key, first [size] slots live *)
  mutable size : int;
  mutable lookups : int;
  mutable hits : int;
}

let create ?(size_hint = 4096) () =
  let size_hint = max 16 size_hint in
  {
    ids = Value.Tbl.create size_hint;
    arena = Array.make size_hint Value.unit;
    size = 0;
    lookups = 0;
    hits = 0;
  }

let intern t v =
  t.lookups <- t.lookups + 1;
  match Value.Tbl.find_opt t.ids v with
  | Some id ->
      t.hits <- t.hits + 1;
      id
  | None ->
      let id = t.size in
      if id = Array.length t.arena then begin
        let arena = Array.make (2 * id) Value.unit in
        Array.blit t.arena 0 arena 0 id;
        t.arena <- arena
      end;
      t.arena.(id) <- v;
      t.size <- id + 1;
      Value.Tbl.replace t.ids v id;
      id

let find_opt t v =
  t.lookups <- t.lookups + 1;
  let r = Value.Tbl.find_opt t.ids v in
  if r <> None then t.hits <- t.hits + 1;
  r

let value t id =
  if id < 0 || id >= t.size then
    invalid_arg (Fmt.str "Intern.value: id %d out of bounds (size %d)" id t.size);
  t.arena.(id)

let size t = t.size
let lookups t = t.lookups
let hits t = t.hits

type table_stats = {
  entries : int;
  buckets : int;
  load : float;
  max_bucket : int;
}

let stats_of_hashtbl (s : Hashtbl.statistics) =
  {
    entries = s.Hashtbl.num_bindings;
    buckets = s.Hashtbl.num_buckets;
    load =
      (if s.Hashtbl.num_buckets = 0 then 0.
       else float_of_int s.Hashtbl.num_bindings /. float_of_int s.Hashtbl.num_buckets);
    max_bucket = s.Hashtbl.max_bucket_length;
  }

let stats t = stats_of_hashtbl (Value.Tbl.stats t.ids)

module Ints = struct
  (* Hash-consing of small [int array] keys to dense ids — the same
     contract as the [Value.t] interner above, minus the arena (no
     caller decodes position ids back).  The solver's transposition
     layer keys game positions by flat int encodings; hashing those
     directly skips building a [Value.t] list per node.

     FNV-1a over the elements: the arrays are short (a handful of
     ids/bitmasks), so a simple multiplicative hash beats the generic
     polymorphic hash without seeding concerns. *)

  module Tbl = Hashtbl.Make (struct
    type t = int array

    let equal (a : int array) b =
      let la = Array.length a in
      la = Array.length b
      &&
      let rec eq i = i >= la || (a.(i) = b.(i) && eq (i + 1)) in
      eq 0

    let hash (a : int array) =
      let h = ref 0x811c9dc5 in
      for i = 0 to Array.length a - 1 do
        h := (!h lxor a.(i)) * 0x01000193
      done;
      !h land max_int
  end)

  type t = { ids : int Tbl.t; mutable size : int }

  let create ?(size_hint = 4096) () =
    { ids = Tbl.create (max 16 size_hint); size = 0 }

  let intern t (key : int array) =
    match Tbl.find_opt t.ids key with
    | Some id -> id
    | None ->
        let id = t.size in
        t.size <- id + 1;
        Tbl.replace t.ids key id;
        id

  let size t = t.size
end

module Sharded = struct
  (* Lock-striped interner shared across domains.  Each key hashes to a
     stripe; the stripe's mutex guards one ordinary [Value.Tbl].  Dense
     ids come from a single atomic counter, so ids are unique but their
     order depends on the schedule — parallel consumers must not read
     meaning into id order, only into the claim bit.

     [intern] doubles as the visited-set claim: exactly one domain ever
     sees [fresh = true] for a given key, which is what makes parallel
     exploration count each state exactly once.

     The stripe count is a prime (never a power of two) on purpose:
     OCaml's [Hashtbl] buckets by the low bits of the hash, so striping
     by [hash mod prime] stays independent of the in-stripe bucketing
     and neither index starves the other of entropy. *)

  type stripe = {
    lock : Mutex.t;
    tbl : int Value.Tbl.t;
    mutable s_lookups : int;
    mutable s_hits : int;
    mutable s_contended : int;
    (* live metric flushing, batched so the per-intern cost stays at
       plain field updates: every 1024 lookups the deltas since the
       last flush go to the global [intern.lookups]/[intern.hits]
       counters *)
    mutable s_lookups_flushed : int;
    mutable s_hits_flushed : int;
    s_contention_c : Wfs_obs.Metrics.Counter.t;  (* per-stripe series *)
  }

  module SM = struct
    open Wfs_obs.Metrics

    let lookups = Counter.make "intern.lookups"
    let hits = Counter.make "intern.hits"
    let contention = Counter.make "intern.contention"

    let stripe_contention i =
      Counter.make (labeled "intern.stripe.contention" [ ("stripe", string_of_int i) ])
  end

  (* [try_lock] first: the uncontended path costs the same lock, and
     the fallback both blocks and counts, making stripe contention
     observable ([contention], explorer.intern.contention).  The
     contended path is already paying a blocking lock, so the two
     counter bumps there are free by comparison. *)
  let lock_stripe s =
    if not (Mutex.try_lock s.lock) then begin
      Mutex.lock s.lock;
      s.s_contended <- s.s_contended + 1;
      Wfs_obs.Metrics.Counter.incr SM.contention;
      Wfs_obs.Metrics.Counter.incr s.s_contention_c
    end

  let flush_stripe s =
    Wfs_obs.Metrics.Counter.add SM.lookups (s.s_lookups - s.s_lookups_flushed);
    Wfs_obs.Metrics.Counter.add SM.hits (s.s_hits - s.s_hits_flushed);
    s.s_lookups_flushed <- s.s_lookups;
    s.s_hits_flushed <- s.s_hits

  type nonrec t = { stripes : stripe array; next : int Atomic.t }

  let default_stripes = 61

  let create ?(stripes = default_stripes) ?(size_hint = 4096) () =
    let stripes = max 1 (min stripes 4093) in
    let per = max 16 (size_hint / stripes) in
    {
      stripes =
        Array.init stripes (fun i ->
            {
              lock = Mutex.create ();
              tbl = Value.Tbl.create per;
              s_lookups = 0;
              s_hits = 0;
              s_contended = 0;
              s_lookups_flushed = 0;
              s_hits_flushed = 0;
              s_contention_c = SM.stripe_contention i;
            });
      next = Atomic.make 0;
    }

  let stripe_of t v =
    let h = Value.hash_full v land max_int in
    t.stripes.(h mod Array.length t.stripes)

  let intern t v =
    let s = stripe_of t v in
    lock_stripe s;
    s.s_lookups <- s.s_lookups + 1;
    if s.s_lookups land 1023 = 0 then flush_stripe s;
    let r =
      match Value.Tbl.find_opt s.tbl v with
      | Some id ->
          s.s_hits <- s.s_hits + 1;
          (id, false)
      | None ->
          let id = Atomic.fetch_and_add t.next 1 in
          Value.Tbl.replace s.tbl v id;
          (id, true)
    in
    Mutex.unlock s.lock;
    r

  (* Claim a whole successor batch in one pass: keys are grouped by
     stripe so each stripe's lock is taken at most once per call
     instead of once per key — on a hot parallel exploration the lock
     round-trips are the dominant shared cost, and one expansion's
     successors arrive together anyway.  [out.(i)] corresponds to
     [keys.(i)] with the same (id, fresh) meaning as [intern]; within
     a batch, keys are processed in ascending position per stripe, so
     duplicates resolve exactly as repeated [intern] calls would.  The
     batch is small (one node's successors), so the quadratic
     stripe-grouping scan stays cheaper than sorting. *)
  let intern_batch t keys =
    let m = Array.length keys in
    let out = Array.make m (0, false) in
    let nstripes = Array.length t.stripes in
    let sidx =
      Array.map
        (fun v -> Value.hash_full v land max_int mod nstripes)
        keys
    in
    for i = 0 to m - 1 do
      let si = sidx.(i) in
      if si >= 0 then begin
        let s = t.stripes.(si) in
        lock_stripe s;
        for j = i to m - 1 do
          if sidx.(j) = si then begin
            sidx.(j) <- -1;
            s.s_lookups <- s.s_lookups + 1;
            if s.s_lookups land 1023 = 0 then flush_stripe s;
            match Value.Tbl.find_opt s.tbl keys.(j) with
            | Some id ->
                s.s_hits <- s.s_hits + 1;
                out.(j) <- (id, false)
            | None ->
                let id = Atomic.fetch_and_add t.next 1 in
                Value.Tbl.replace s.tbl keys.(j) id;
                out.(j) <- (id, true)
          end
        done;
        Mutex.unlock s.lock
      end
    done;
    out

  let find_opt t v =
    let s = stripe_of t v in
    lock_stripe s;
    s.s_lookups <- s.s_lookups + 1;
    if s.s_lookups land 1023 = 0 then flush_stripe s;
    let r = Value.Tbl.find_opt s.tbl v in
    if r <> None then s.s_hits <- s.s_hits + 1;
    Mutex.unlock s.lock;
    r

  let size t = Atomic.get t.next

  let fold_stripes t f init =
    Array.fold_left
      (fun acc s ->
        Mutex.lock s.lock;
        let acc = f acc s in
        Mutex.unlock s.lock;
        acc)
      init t.stripes

  let flush t = fold_stripes t (fun () s -> flush_stripe s) ()
  let lookups t = fold_stripes t (fun acc s -> acc + s.s_lookups) 0
  let hits t = fold_stripes t (fun acc s -> acc + s.s_hits) 0
  let contention t = fold_stripes t (fun acc s -> acc + s.s_contended) 0

  let stats t =
    let zero = { entries = 0; buckets = 0; load = 0.; max_bucket = 0 } in
    let sum =
      fold_stripes t
        (fun acc s ->
          let st = stats_of_hashtbl (Value.Tbl.stats s.tbl) in
          {
            entries = acc.entries + st.entries;
            buckets = acc.buckets + st.buckets;
            load = 0.;
            max_bucket = max acc.max_bucket st.max_bucket;
          })
        zero
    in
    {
      sum with
      load =
        (if sum.buckets = 0 then 0.
         else float_of_int sum.entries /. float_of_int sum.buckets);
    }
end
