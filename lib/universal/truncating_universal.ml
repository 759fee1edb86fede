(* The strongly-wait-free variant of the universal construction (§4.1).

   Plain log replay makes the k-th operation replay k-1 entries — wait-
   free but not strongly wait-free.  The fix from the paper: list
   elements may be operations OR states.  After computing its response,
   a front-end destructively replaces the cdr of its own entry with the
   state it just reconstructed; replay stops at the first state entry,
   so any later operation replays at most n operations (one in-flight,
   untruncated operation per process).

   The representation object here supports fetch-and-cons plus that
   destructive [truncate].  For verification the object also carries a
   *ghost* audit log — the never-truncated operation history, invisible
   to front-ends — whose order every terminal state's responses must
   linearize under [check_witness]. *)

open Wfs_spec
open Wfs_sim

let log_name = "log"

let fac entry = Op.make "fetch-and-cons" entry

let truncate ~key state = Op.make "truncate" (Value.pair key (Value.pair (Value.str "state") state))

(* State: Pair (visible log, ghost audit log), both newest first. *)
let log_object ?(name = log_name) () =
  let apply state op =
    let visible, ghost = Value.as_pair state in
    let visible = Value.as_list visible and ghost = Value.as_list ghost in
    match Op.name op with
    | "fetch-and-cons" ->
        let entry = Op.arg op in
        ( Value.pair
            (Value.list (entry :: visible))
            (Value.list (entry :: ghost)),
          Value.list visible )
    | "truncate" ->
        let key, state_entry = Value.as_pair (Op.arg op) in
        (* keep entries newer than (and including) the keyed op; replace
           everything older with the state entry *)
        let rec rewrite = function
          | [] -> [] (* key not found: leave unchanged (unreachable) *)
          | e :: rest -> (
              match Replay.decode_entry e with
              | Replay.Op { pid; seq; _ }
                when Value.equal (Value.pair (Value.int pid) (Value.int seq)) key
                ->
                  [ e; state_entry ]
              | Replay.Op _ | Replay.State _ -> e :: rewrite rest)
        in
        (Value.pair (Value.list (rewrite visible)) (Value.list ghost), Value.unit)
    | _ -> raise (Object_spec.Unknown_operation { obj = name; op })
  in
  Object_spec.make ~name
    ~init:(Value.pair (Value.list []) (Value.list []))
    ~apply ~menu:[]

(* Front-end: per abstract operation, (1) fetch-and-cons the tagged
   invocation, (2) locally reconstruct and respond, (3) truncate own
   entry with the reconstructed pre-state.  Local state:
   (phase, idx, acc) where acc accumulates (response, replay-cost)
   pairs. *)
let front_end ~(target : Object_spec.t) ~pid ~script =
  let script = Array.of_list script in
  let encode phase idx acc =
    Value.pair (Value.int phase) (Value.pair (Value.int idx) (Value.list acc))
  in
  let decode local =
    let phase, rest = Value.as_pair local in
    let idx, acc = Value.as_pair rest in
    (Value.as_int phase, Value.as_int idx, Value.as_list acc)
  in
  let ph_fac = 0 and ph_truncate = 1 in
  Process.make ~pid ~init:(encode ph_fac 0 []) (fun local ->
      let phase, idx, acc = decode local in
      if idx >= Array.length script then
        Process.decide (Value.list (List.rev acc))
      else if phase = ph_fac then
        let op = script.(idx) in
        Process.invoke ~obj:log_name
          (fac (Replay.op_entry ~pid ~seq:idx op))
          (fun prior ->
            let result, _post, cost =
              Replay.response target (Value.as_list prior) op
            in
            let pre_state, _ = Replay.reconstruct target (Value.as_list prior) in
            encode ph_truncate idx
              (Value.pair result (Value.pair (Value.int cost) pre_state) :: acc))
      else begin
        (* acc head carries the pre-state to truncate with *)
        match acc with
        | [] -> invalid_arg "truncating front-end: missing pre-state"
        | latest :: rest ->
            let result, cost_and_state = Value.as_pair latest in
            let cost, pre_state = Value.as_pair cost_and_state in
            let key = Value.pair (Value.int pid) (Value.int idx) in
            Process.invoke ~obj:log_name
              (truncate ~key pre_state)
              (fun _ ->
                encode ph_fac (idx + 1)
                  (Value.pair result cost :: rest))
      end)

let env = Env.make [ (log_name, log_object ()) ]

let config ~target ~scripts =
  let procs =
    Array.mapi (fun pid script -> front_end ~target ~pid ~script) scripts
  in
  { Explorer.procs; env }

(* Decisions are lists of (response, replay cost) pairs. *)
let check_terminal ~target ~scripts (node : Explorer.node) =
  let n = Array.length scripts in
  match Replay.decisions node.Explorer.decided with
  | Error e -> (0, Error e)
  | Ok decided ->
      let pairs = Array.map (List.map Value.as_pair) decided in
      let worst =
        Array.fold_left
          (List.fold_left (fun m (_, c) -> max m (Value.as_int c)))
          0 pairs
      in
      let _, ghost =
        Value.as_pair (Env.get node.Explorer.env_state env log_name)
      in
      ( worst,
        if worst > n then
          Error (Fmt.str "an operation replayed %d ops (> n = %d)" worst n)
        else
          Replay.linearizes target ~order:(Value.as_list ghost) ~ops:scripts
            ~results:(Array.map (List.map fst) pairs) )

let verify ?(max_states = 2_000_000) ~target ~scripts () =
  let max_replay = ref 0 in
  let terminal node =
    let worst, verdict = check_terminal ~target ~scripts node in
    max_replay := max !max_replay worst;
    verdict
  in
  let v = Explorer.check ~max_states (config ~target ~scripts) ~terminal in
  (v, !max_replay)

(* Single-schedule run (for benchmarks): returns per-process responses
   and replay costs. *)
let run ?(max_steps = 1_000_000) ~target ~scripts ~schedule () =
  let cfg = config ~target ~scripts in
  Runner.run ~max_steps ~procs:cfg.Explorer.procs ~env:cfg.Explorer.env
    ~schedule ()
