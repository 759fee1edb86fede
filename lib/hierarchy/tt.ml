(* Footprint-validated transposition entries for the bounded solver.

   The solver's search is an exists/forall game over a SHARED MUTABLE
   strategy table σ: the game value of a position is only defined
   relative to the σ entries the subproof consults.  A verdict cached at
   a position is therefore replayable only under a side condition — the
   current σ must agree with the σ the subproof actually observed.  This
   module holds the machinery for that side condition:

   - a [frame] accumulates the σ-FOOTPRINT of one subproof: every σ-key
     read (with the value first seen) and every σ-key written inside it.
     Frames nest with the search; on exit a child's footprint merges
     into its parent, so an enclosing subproof's footprint covers
     everything its descendants consulted.  Footprints are capped at
     {!fp_cap} items — an oversized subproof simply is not cached
     (sound: caching is only ever an optimization).

   - an [entry] is a cached verdict [(position, e_true, e_mask, e_fp)].

     A REFUTATION entry ([e_true = false]) is recorded only for *pure*
     subgame refutations — the continuation was never invoked, so the
     [false] says "this subgame has no winning strategy extension", not
     "some later obligation failed".  Its footprint keeps only the keys
     read but never written inside the subproof, and among those only
     the ones seen ASSIGNED: keys written inside net out to unassigned
     by the backtracking discipline (every internal [sigma_set] is
     undone before a pure [false] returns), and keys seen unassigned
     were enumerated exhaustively, so the refutation holds a fortiori
     under any later assignment to them (pinning σ only restricts the
     exists player — game falsity is antitone in σ).  Replay condition:
     σ currently assigns exactly the recorded action to every footprint
     key.  The sleep mask is irrelevant: a refutation is a statement
     about the game value under σ|footprint, and sleep-set reduction
     preserves game values.

     A VERIFIED entry ([e_true = true]) is recorded only when the
     continuation was invoked exactly once — the subproof completed
     every schedule and handed off cleanly, so its σ-effects are
     exactly its recorded writes.  Its footprint is exact: every key
     read or written, at its final σ value (reads at the value first
     seen, writes at the value they hold when the subproof succeeds).
     Replay requires exact agreement, INCLUDING keys required to be
     unassigned.  That exactness is what makes success replay sound in
     CPS: when every footprint key already holds its recorded value, a
     re-exploration of the subtree would be fully σ-determined (every
     choice point on a surviving path is a memo hit), so it would
     rebuild no live choice points — invoking the continuation directly
     is observationally identical, including the case where the
     continuation later fails and unwinds straight through.  Success
     replay additionally requires [e_mask ⊆ current mask]: the recorded
     proof verified only the scheduler branches outside [e_mask]
     (branches inside it were covered by the recording context's
     ancestors), so the replay context must dominate at least as many
     branches itself.

   - a [conflict] is the no-good driving a [false] currently unwinding
     the search: the footprint its refutation depends on, plus the
     serials of the choice frames that FORMED the refuted structure
     (its position, and the candidate set under it).  While the
     conflict's footprint stays σ-valid, any existential choice point
     the failure crosses whose serial is outside [c_chain] — and whose
     flipped candidates therefore cannot reshape the refuted structure
     nor touch its σ-support — can skip its remaining candidates: the
     re-exploration they would trigger demonstrably re-derives the same
     refutation.  That is dependency-directed backjumping lifted to the
     exists/forall game.  [c_fp = None] marks a conflict whose support
     is unknown (footprint overflow, or a mixed failure): it never
     justifies a skip, but keeps the invariant that every propagating
     [false] carries an explicit conflict state.

   Representation: σ-keys and σ-values are both dense ints — the
   solver's [view_id * n + pid] keys and its per-context action codes,
   with {!unassigned} (-1) for "no action".  Every comparison on the
   hot path is an int compare, a footprint is one flat int array of
   (key, value) pairs, and the store is an array indexed by the
   interned position id. *)

let unassigned = -1

type item = {
  ik : int;
  mutable iseen : int;  (* value at first external read *)
  mutable iwrote : bool;  (* written inside the subproof *)
}

type frame = {
  mutable items : item list;
  mutable nitems : int;
  mutable over : bool;  (* footprint exceeded [fp_cap]: not cacheable *)
  mutable tainted : bool;
      (* a backjump fired inside this subproof.  A skip is justified by
         a GLOBAL argument — any completed search would re-demand the
         conflict's refuted structure and fail — which is weaker than a
         subgame refutation: the skipped candidates might have won
         their subgames and failed only in the continuation.  A [false]
         that rests on a skip therefore must not be recorded as a
         subgame refutation, nor compose into pure-exhaustion no-goods;
         success verdicts are unaffected ([true] is never
         skip-derived). *)
}

(* A footprint: [| k0; v0; k1; v1; … |], each consulted key followed by
   the value the subproof requires of it. *)
type fp = int array

type entry = {
  e_true : bool;
  e_mask : int;  (* sleep mask at recording; checked for successes only *)
  e_fp : fp;
}

type conflict = {
  c_fp : fp option;  (* None: support unknown, no skips *)
  c_chain : int list;  (* serials of the choice frames forming the structure *)
}

(* Position id -> entries there, newest first; grown on demand. *)
type store = { mutable tbl : entry list array; mutable entries : int }

(* Footprint cap: subproofs consulting more distinct σ-keys than this
   are not cached and never serve as conflicts.  Deliberately small —
   per-read bookkeeping scans the open frame linearly, so the cap
   bounds the constant factor on the search hot path; big subproofs
   overflow early and their frames degrade to a cheap one-bit check. *)
let fp_cap = 48

(* Cached entries per position: the same position can recur under
   incompatible σ contexts, each deserving its own entry; newest-first,
   oldest evicted. *)
let entry_cap = 4

let frame () = { items = []; nitems = 0; over = false; tainted = false }
let taint fr = fr.tainted <- true

let rec find_item (k : int) = function
  | [] -> None
  | it :: rest -> if it.ik = k then Some it else find_item k rest

let add_item fr it =
  if fr.nitems >= fp_cap then fr.over <- true
  else begin
    fr.items <- it :: fr.items;
    fr.nitems <- fr.nitems + 1
  end

(* [log_read fr k seen]: the subproof consulted σ(k) and saw [seen].
   Keys already written inside the subproof are internal — their reads
   carry no external constraint.  External keys are single-writer
   within a subproof's lifetime (all writes are logged), so the
   first-seen value is THE value. *)
let log_read fr k seen =
  if not fr.over then
    match find_item k fr.items with
    | Some _ -> ()
    | None -> add_item fr { ik = k; iseen = seen; iwrote = false }

let log_write fr k =
  if not fr.over then
    match find_item k fr.items with
    | Some it -> it.iwrote <- true
    | None -> add_item fr { ik = k; iseen = unassigned; iwrote = true }

(* Child subproof exits: everything it consulted, its parent's subproof
   consulted too.  A key the parent already wrote stays internal to the
   parent regardless of what the child did with it. *)
let merge ~child ~parent =
  if child.tainted then parent.tainted <- true;
  if child.over then parent.over <- true
  else if not parent.over then
    List.iter
      (fun it ->
        if it.iwrote then log_write parent it.ik
        else log_read parent it.ik it.iseen)
      child.items

(* [flatten items keep value]: the footprint of the items [keep] admits,
   each key paired with [value item], in item order. *)
let flatten items keep value =
  let m = List.fold_left (fun m it -> if keep it then m + 1 else m) 0 items in
  let fp = Array.make (2 * m) 0 in
  let j = ref 0 in
  List.iter
    (fun it ->
      if keep it then begin
        fp.(!j) <- it.ik;
        fp.(!j + 1) <- value it;
        j := !j + 2
      end)
    items;
  fp

(* Footprint of a pure refutation: external reads seen assigned.  The
   rest is dropped soundly (see the header).  Tainted frames yield
   nothing: their [false] rests on a backjump, which only proves global
   failure, not subgame falsity. *)
let refutation_fp fr =
  if fr.over || fr.tainted then None
  else
    Some
      (flatten fr.items
         (fun it -> (not it.iwrote) && it.iseen <> unassigned)
         (fun it -> it.iseen))

(* Footprint of a clean success: exact, every key at its final value —
   writes re-read from the live σ at recording time. *)
let success_fp ~find fr =
  if fr.over then None
  else
    Some
      (flatten fr.items
         (fun _ -> true)
         (fun it -> if it.iwrote then find it.ik else it.iseen))

let fp_valid ~find (fp : fp) =
  let n = Array.length fp in
  let rec go i =
    i >= n || (find fp.(i) = fp.(i + 1) && go (i + 2))
  in
  go 0

type outcome =
  | Replay of entry
  | Miss of int  (* entries present but footprint/mask-rejected *)

(* First entry whose side condition holds under the current σ and sleep
   mask wins; [Miss r] reports how many candidates were rejected, for
   the [solver.tt.footprint_rejects] accounting. *)
let lookup store ~find ~pos ~mask =
  if pos >= Array.length store.tbl then Miss 0
  else
    let rec scan rejected = function
      | [] -> Miss rejected
      | e :: rest ->
          if
            (if e.e_true then e.e_mask land lnot mask = 0 else true)
            && fp_valid ~find e.e_fp
          then Replay e
          else scan (rejected + 1) rest
    in
    scan 0 store.tbl.(pos)

let record store ~pos entry =
  let cap = Array.length store.tbl in
  if pos >= cap then begin
    let tbl = Array.make (max (pos + 1) (2 * cap)) [] in
    Array.blit store.tbl 0 tbl 0 cap;
    store.tbl <- tbl
  end;
  let cur = store.tbl.(pos) in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | e :: rest -> e :: take (n - 1) rest
  in
  let kept = take (entry_cap - 1) cur in
  store.entries <- store.entries + 1 + List.length kept - List.length cur;
  store.tbl.(pos) <- entry :: kept

(* small start: a context lives for one census row, and most rows
   settle a few hundred positions *)
let create () = { tbl = Array.make 64 []; entries = 0 }
let entries store = store.entries
