(* Log entries and deterministic replay (§4.1).

   The universal construction represents an object's state as the list
   of invocations applied to it, most recent first.  Entries are tagged
   with (process, sequence number) so identical operations by different
   processes — or by the same process at different times — stay
   distinct.  The strongly-wait-free variant also stores reconstructed
   *states* in the list; replay stops at the first state entry. *)

open Wfs_spec

type entry = Op of { pid : int; seq : int; op : Op.t } | State of Value.t

let op_entry ~pid ~seq op : Value.t =
  Value.pair (Value.str "op")
    (Value.pair (Value.pair (Value.int pid) (Value.int seq)) op)

let state_entry state : Value.t = Value.pair (Value.str "state") state

let decode_entry v : entry =
  let tag, payload = Value.as_pair v in
  match Value.as_str tag with
  | "op" ->
      let key, op = Value.as_pair payload in
      let pid, seq = Value.as_pair key in
      Op { pid = Value.as_int pid; seq = Value.as_int seq; op }
  | "state" -> State payload
  | s -> invalid_arg (Fmt.str "Replay.decode_entry: bad tag %S" s)

let entry_op v =
  match decode_entry v with
  | Op { op; _ } -> Some op
  | State _ -> None

(* [reconstruct spec log] walks the log (most recent first) collecting
   operations until it hits a state entry (or the end, where the initial
   state applies), then replays forward.  Returns the reconstructed
   state and the number of operations replayed — the §4.1 replay-cost
   metric measured by the benchmarks. *)
let reconstruct (spec : Object_spec.t) (log : Value.t list) =
  let rec collect acc = function
    | [] -> (spec.Object_spec.init, acc)
    | v :: rest -> (
        match decode_entry v with
        | Op { op; _ } -> collect (op :: acc) rest
        | State s -> (s, acc))
  in
  let base, ops = collect [] log in
  let state =
    List.fold_left (fun st op -> fst (Object_spec.apply spec st op)) base ops
  in
  (state, List.length ops)

(* [response spec log op] — the §4.1 two-step execution: the state before
   [op] is reconstructed from the log of its predecessors, and the
   result read off [apply]. *)
let response spec log op =
  let state, replayed = reconstruct spec log in
  let state', result = Object_spec.apply spec state op in
  (result, state', replayed)

(* Each process's decided list, or why a terminal has none. *)
let decisions (decided : Value.t option array) =
  let exception Bad of string in
  try
    Ok
      (Array.mapi
         (fun pid -> function
           | Some (Value.List l) -> l
           | Some v ->
               raise (Bad (Fmt.str "P%d decided non-list %a" pid Value.pp v))
           | None -> raise (Bad (Fmt.str "P%d undecided at terminal" pid)))
         decided)
  with Bad e -> Error e

(* [linearizes spec ~order ~ops ~results]: one witness column block per
   process — operation [i] of process [pid] is [ops.(pid)]'s [i]-th,
   placed where its (pid, i) tag sits in [order] (a log, most recent
   first) — judged by [check_witness].  Every operation is invoked and
   responds at time 0, so the real-time scan is vacuous and only the
   order is judged, as the construction fixed it. *)
let linearizes spec ~order ~ops ~results =
  let ops = Array.map Array.of_list ops in
  let length = List.length order in
  let positions = Array.map (fun o -> Array.make (Array.length o) (-1)) ops in
  List.iteri
    (fun i entry ->
      match decode_entry entry with
      | Op { pid; seq; _ }
        when pid >= 0 && pid < Array.length ops
             && seq >= 0 && seq < Array.length ops.(pid) ->
          positions.(pid).(seq) <- length - 1 - i
      | Op _ | State _ | (exception Invalid_argument _) -> ())
    order;
  let counts_differ pid = List.length results.(pid) <> Array.length ops.(pid) in
  match List.find_opt counts_differ (List.init (Array.length ops) Fun.id) with
  | Some pid ->
      Error
        (Fmt.str "P%d decided %d responses for %d operations" pid
           (List.length results.(pid)) (Array.length ops.(pid)))
  | None ->
      let block pid ops =
        let zeros = Array.make (Array.length ops) 0 in
        {
          Wfs_history.Linearizability.ops;
          results = Array.of_list results.(pid);
          invoked = zeros;
          responded = zeros;
          positions = positions.(pid);
        }
      in
      let ws = Array.to_list (Array.mapi block ops) in
      if Wfs_history.Linearizability.check_witness spec ~length ws then Ok ()
      else Error "responses are not linearizable in the order the log fixes"
