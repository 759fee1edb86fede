(* Concurrent histories (§2): finite sequences of INVOKE/RESPOND events,
   well-formedness, and the decomposition into operation intervals used by
   the linearizability checker. *)

open Wfs_spec

type t = Event.t list

(* One operation interval extracted from a history: an invocation, its
   matching response if any, and the positions of both events.  A pending
   operation has [res = None] and [respond_at = max_int], so precedence
   comparisons work uniformly. *)
type operation = {
  pid : int;
  obj : string;
  op : Op.t;
  res : Value.t option;
  invoke_at : int;
  respond_at : int;
}

let pp ppf (h : t) =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Event.pp) h

let project_pid pid (h : t) = List.filter (fun e -> Event.pid e = pid) h
let project_obj obj (h : t) =
  List.filter (fun e -> String.equal (Event.obj e) obj) h

let objects (h : t) =
  List.sort_uniq String.compare (List.map Event.obj h)

let pids (h : t) = List.sort_uniq Int.compare (List.map Event.pid h)

(* A process subhistory is well-formed if it alternates INVOKE and
   matching RESPOND events, beginning with an INVOKE (§2.2). *)
let well_formed_for pid (h : t) =
  let rec go pending = function
    | [] -> true
    | Event.Invoke { obj; _ } :: rest -> (
        match pending with None -> go (Some obj) rest | Some _ -> false)
    | Event.Respond { obj; _ } :: rest -> (
        match pending with
        | Some pending_obj when String.equal pending_obj obj -> go None rest
        | Some _ | None -> false)
  in
  go None (project_pid pid h)

let well_formed (h : t) = List.for_all (fun p -> well_formed_for p h) (pids h)

(* Decompose a well-formed history into operation intervals, in invocation
   order. *)
let operations (h : t) : operation list =
  let arr = Array.of_list h in
  let n = Array.length arr in
  let ops = ref [] in
  for i = 0 to n - 1 do
    match arr.(i) with
    | Event.Invoke { pid; obj; op } ->
        (* Find the matching response: the first later response by the
           same process on the same object. *)
        let rec find j =
          if j >= n then None
          else
            match arr.(j) with
            | Event.Respond { pid = rpid; obj = robj; res }
              when rpid = pid && String.equal robj obj ->
                Some (j, res)
            | Event.Respond _ | Event.Invoke _ -> find (j + 1)
        in
        let res, respond_at =
          match find (i + 1) with
          | Some (j, res) -> (Some res, j)
          | None -> (None, max_int)
        in
        ops := { pid; obj; op; res; invoke_at = i; respond_at } :: !ops
    | Event.Respond _ -> ()
  done;
  List.rev !ops

(* [precedes a b]: operation [a] completed before [b] was invoked — the
   "real-time" order that a linearization must respect. *)
let precedes a b = a.respond_at < b.invoke_at

let is_pending op = Option.is_none op.res

(* A complete (pending-free) sequential witness: apply operations in the
   given order against a spec and check each completed result. *)
let check_sequential (spec : Object_spec.t) (ops : operation list) =
  let rec go state = function
    | [] -> true
    | o :: rest -> (
        let state', result = Object_spec.apply spec state o.op in
        match o.res with
        | Some expected when not (Value.equal result expected) -> false
        | Some _ | None -> go state' rest)
  in
  go spec.Object_spec.init ops
