(* Hash-consing of state keys.

   The explorer and the solver key their visited sets, memo tables and
   strategy tables by encodings of states: the explorer by one packed
   string per joint state, the solver by [Value.t] views and flat int
   positions.  Interning maps each distinct key to a dense [int] id
   exactly once — one hash lookup against an id table — after which
   every downstream structure (colors, DP bounds, strategy entries) is
   int-keyed or a plain array indexed by id.

   Only the [Value.t] instance keeps an arena for the id -> key
   direction: the solver decodes view ids back to views when it
   extracts a strategy.  Nobody decodes positions or packed states, so
   those tables hold each key once, in the id table. *)

open Wfs_spec

module type S = sig
  type key
  type t

  val create : ?size_hint:int -> unit -> t
  val intern : t -> key -> int
  val size : t -> int
  val lookups : t -> int
  val hits : t -> int
end

module Make (K : Hashtbl.HashedType) = struct
  module Tbl = Hashtbl.Make (K)

  type key = K.t

  type t = {
    ids : int Tbl.t;
    mutable size : int;
    mutable lookups : int;
    mutable hits : int;
  }

  let create ?(size_hint = 4096) () =
    { ids = Tbl.create (max 16 size_hint); size = 0; lookups = 0; hits = 0 }

  let intern t k =
    t.lookups <- t.lookups + 1;
    match Tbl.find_opt t.ids k with
    | Some id ->
        t.hits <- t.hits + 1;
        id
    | None ->
        let id = t.size in
        t.size <- id + 1;
        Tbl.replace t.ids k id;
        id

  let size t = t.size
  let lookups t = t.lookups
  let hits t = t.hits
end

module Values = Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash_full
end)

type key = Value.t

type t = {
  ids : Values.t;
  mutable arena : Value.t array;  (* id -> key, first [size] slots live *)
}

let create ?(size_hint = 4096) () =
  let size_hint = max 16 size_hint in
  { ids = Values.create ~size_hint (); arena = Array.make size_hint Value.unit }

let size t = Values.size t.ids
let lookups t = Values.lookups t.ids
let hits t = Values.hits t.ids

let intern t v =
  let fresh = size t in
  let id = Values.intern t.ids v in
  if id = fresh then begin
    if id = Array.length t.arena then begin
      let arena = Array.make (2 * id) Value.unit in
      Array.blit t.arena 0 arena 0 id;
      t.arena <- arena
    end;
    t.arena.(id) <- v
  end;
  id

let value t id =
  if id < 0 || id >= size t then
    invalid_arg (Fmt.str "Intern.value: id %d out of bounds (size %d)" id (size t));
  t.arena.(id)

(* The solver's transposition layer keys game positions by short flat
   int encodings (a handful of ids and bitmasks): FNV-1a over the
   elements beats the generic polymorphic hash without seeding
   concerns. *)
module Ints = Make (struct
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

(* [String.hash] mixes every byte of the key. *)
module Strings = Make (String)

module Sharded = struct
  (* Lock-striped interner shared across domains.  Each key hashes to a
     stripe; the stripe's mutex guards one ordinary string table.  Dense
     ids come from a single atomic counter, so ids are unique but their
     order depends on the schedule — parallel consumers must not read
     meaning into id order, only into the claim bit.

     The claim doubles as the visited set: exactly one domain ever sees
     [fresh = true] for a given key, which is what makes parallel
     exploration count each state exactly once.

     The stripe count is a prime (never a power of two) on purpose:
     OCaml's [Hashtbl] buckets by the low bits of the hash, so striping
     by [hash mod prime] stays independent of the in-stripe bucketing
     and neither index starves the other of entropy. *)

  module Tbl = Hashtbl.Make (String)

  type stripe = {
    lock : Mutex.t;
    tbl : int Tbl.t;
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
              tbl = Tbl.create per;
              s_lookups = 0;
              s_hits = 0;
              s_contended = 0;
              s_lookups_flushed = 0;
              s_hits_flushed = 0;
              s_contention_c = SM.stripe_contention i;
            });
      next = Atomic.make 0;
    }

  (* Claim a whole successor batch in one pass: keys are grouped by
     stripe so each stripe's lock is taken at most once per call
     instead of once per key — on a hot parallel exploration the lock
     round-trips are the dominant shared cost, and one expansion's
     successors arrive together anyway.  Within a batch, keys are
     processed in ascending position per stripe, so a duplicate's
     earlier position claims it.  The batch is small (one node's
     successors), so the quadratic stripe-grouping scan stays cheaper
     than sorting. *)
  let intern_batch t keys =
    let m = Array.length keys in
    let out = Array.make m (0, false) in
    let nstripes = Array.length t.stripes in
    let sidx = Array.map (fun k -> String.hash k mod nstripes) keys in
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
            match Tbl.find_opt s.tbl keys.(j) with
            | Some id ->
                s.s_hits <- s.s_hits + 1;
                out.(j) <- (id, false)
            | None ->
                let id = Atomic.fetch_and_add t.next 1 in
                Tbl.replace s.tbl keys.(j) id;
                out.(j) <- (id, true)
          end
        done;
        Mutex.unlock s.lock
      end
    done;
    out

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
end
