(* Linearizability checking (§2.3), in the style of Wing & Gong.

   Given the subhistory of a single object and that object's sequential
   specification, search for a legal sequential history S that (a) extends
   the real-time precedence order of the concurrent history and (b) agrees
   with every completed response.  Pending invocations may be linearized
   (with whatever result the spec gives) or dropped.

   The search is a DFS over "which operation is linearized next", with
   memoization on (specification state, set of already-linearized
   operations).  Linearizability is a local property (the paper cites
   [10]), so a multi-object history is checked object by object. *)

open Wfs_spec

type verdict = { linearizable : bool; witness : History.operation list option }

exception Too_many_operations of int

let max_ops = 62 (* operations per object history tracked in one bitmask *)

let check_object (spec : Object_spec.t) (h : History.t) : verdict =
  let ops = Array.of_list (History.operations h) in
  let n = Array.length ops in
  if n > max_ops then raise (Too_many_operations n);
  let full_mask = if n = 0 then 0 else (1 lsl n) - 1 in
  (* memo: (state, done-mask) -> known failure.  Successes short-circuit
     out of the search, so only failures are cached. *)
  let failed = Hashtbl.create 251 in
  (* [minimal mask i]: no not-yet-linearized operation responded before
     operation [i] was invoked. *)
  let minimal mask i =
    let rec go j =
      j >= n
      || ((j = i || mask land (1 lsl j) <> 0
          || not (History.precedes ops.(j) ops.(i)))
         && go (j + 1))
    in
    go 0
  in
  let rec search state mask acc =
    if mask = full_mask then Some (List.rev acc)
    else if Hashtbl.mem failed (state, mask) then None
    else begin
      let result = ref None in
      let i = ref 0 in
      while !result = None && !i < n do
        let idx = !i in
        incr i;
        if mask land (1 lsl idx) = 0 && minimal mask idx then begin
          let o = ops.(idx) in
          let state', res = Object_spec.apply spec state o.History.op in
          let ok =
            match o.History.res with
            | Some expected -> Value.equal res expected
            | None -> true
          in
          if ok then
            match search state' (mask lor (1 lsl idx)) (o :: acc) with
            | Some w -> result := Some w
            | None -> ()
        end
      done;
      (* Alternatively, every remaining operation may be a dropped pending
         invocation. *)
      (if !result = None then
         let rec all_pending j =
           j >= n
           || ((mask land (1 lsl j) <> 0 || History.is_pending ops.(j))
              && all_pending (j + 1))
         in
         if all_pending 0 then result := Some (List.rev acc));
      if !result = None then Hashtbl.replace failed (state, mask) ();
      !result
    end
  in
  match search spec.Object_spec.init 0 [] with
  | Some witness -> { linearizable = true; witness = Some witness }
  | None -> { linearizable = false; witness = None }

(* Check a multi-object history against an environment of specifications,
   object by object (locality). *)
let is_linearizable (env : (string * Object_spec.t) list) (h : History.t) =
  History.well_formed h
  && List.for_all
       (fun obj ->
         match List.assoc_opt obj env with
         | Some spec -> (check_object spec (History.project_obj obj h)).linearizable
         | None ->
             invalid_arg (Fmt.str "Linearizability.is_linearizable: no spec for %S" obj))
       (History.objects h)

(* The construction's own witness (§2.3).  A construction that threads
   every invocation at one log position reports its linearization order
   with each result, so checking a run is a replay in position order, not
   a search over orders.  Completed operations carry their positions; a
   pending operation (a halted client's in-flight invocation) carries
   none, and the only search left is which pending operation fills each
   gap its effect left in the log — over the pending operations alone,
   memoized on (specification state, placed set) as above.

   Real time is one backward scan: an operation at position p, placed
   or filling a gap, must have been invoked no later than the earliest
   response among the operations placed after p. *)
let check_witness (spec : Object_spec.t) ~length
    (ops : (History.operation * int option) array) =
  let at = Array.make (max length 0) (-1) (* operation index per position *)
  and pending = ref []
  and ok = ref (length >= 0) in
  Array.iteri
    (fun i ((o : History.operation), pos) ->
      match pos with
      | Some p when p >= 0 && p < length && at.(p) < 0 -> at.(p) <- i
      | None when History.is_pending o -> pending := o :: !pending
      | Some _ | None -> ok := false)
    ops;
  let gaps = Array.fold_left (fun n i -> if i < 0 then n + 1 else n) 0 at in
  let bound = Array.make gaps max_int (* latest invocation per gap *)
  and earliest = ref max_int
  and k = ref gaps in
  for p = length - 1 downto 0 do
    if at.(p) < 0 then begin
      decr k;
      bound.(!k) <- !earliest
    end
    else begin
      let o = fst ops.(at.(p)) in
      if o.History.invoke_at > !earliest then ok := false;
      earliest := min !earliest o.History.respond_at
    end
  done;
  let pending = Array.of_list !pending in
  let used = Bytes.make (Array.length pending) '0' in
  let failed = Hashtbl.create 16 in
  (* replay from position [p] in [state], [k] gaps filled so far *)
  let rec replay p k state =
    if p = length then true
    else if at.(p) < 0 then fill p k state
    else
      let o = fst ops.(at.(p)) in
      let state', res = Object_spec.apply spec state o.History.op in
      Option.fold ~none:true ~some:(Value.equal res) o.History.res
      && replay (p + 1) k state'
  and fill p k state =
    let key = (state, Bytes.to_string used) in
    let rec try_from j =
      j < Array.length pending
      && ((Bytes.get used j = '0'
          && pending.(j).History.invoke_at <= bound.(k)
          && begin
               Bytes.set used j '1';
               let state', _ = Object_spec.apply spec state pending.(j).op in
               let filled = replay (p + 1) (k + 1) state' in
               Bytes.set used j '0';
               filled
             end)
         || try_from (j + 1))
    in
    (not (Hashtbl.mem failed key))
    && (try_from 0 || (Hashtbl.replace failed key (); false))
  in
  !ok && replay 0 0 spec.Object_spec.init
