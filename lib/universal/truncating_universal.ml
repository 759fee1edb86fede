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
   to front-ends — against which every terminal state is checked. *)

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

let config ~target ~scripts =
  let n = Array.length scripts in
  let procs =
    Array.init n (fun pid -> front_end ~target ~pid ~script:scripts.(pid))
  in
  let env = Env.make [ (log_name, log_object ()) ] in
  { Explorer.procs; env }

type verification = {
  ok : bool;
  states : int;
  terminals : int;
  wait_free : bool;
  max_replay : int;  (** worst replay cost observed at any terminal *)
  max_visible_ops : int;
      (** most un-truncated operations in the visible log at a terminal *)
  failure : string option;
}

let verify ?(max_states = 2_000_000) ~target ~scripts () =
  let cfg = config ~target ~scripts in
  let n = Array.length scripts in
  let terminals = ref 0 in
  let failure = ref None in
  let max_replay = ref 0 in
  let max_visible_ops = ref 0 in
  let check_terminal (node : Explorer.node) =
    incr terminals;
    let visible, ghost =
      Value.as_pair (Env.get node.Explorer.env_state cfg.Explorer.env log_name)
    in
    let ghost = Value.as_list ghost in
    let visible_ops =
      List.length
        (List.filter
           (fun e ->
             match Replay.decode_entry e with
             | Replay.Op _ -> true
             | Replay.State _ -> false)
           (Value.as_list visible))
    in
    if visible_ops > !max_visible_ops then max_visible_ops := visible_ops;
    let expected = Log_universal.expected_responses ~target ~n ghost in
    Array.iteri
      (fun pid decided ->
        match decided with
        | Some (Value.List entries) ->
            let results =
              List.map (fun e -> fst (Value.as_pair e)) entries
            in
            let costs =
              List.map (fun e -> Value.as_int (snd (Value.as_pair e))) entries
            in
            List.iter
              (fun c ->
                if c > !max_replay then max_replay := c;
                if c > n then
                  failure :=
                    Some
                      (Fmt.str "P%d replayed %d ops (> n = %d)" pid c n))
              costs;
            if not (List.equal Value.equal results expected.(pid)) then
              failure :=
                Some
                  (Fmt.str "P%d responded %a but the ghost log dictates %a"
                     pid
                     Fmt.(list ~sep:comma Value.pp)
                     results
                     Fmt.(list ~sep:comma Value.pp)
                     expected.(pid))
        | Some v ->
            failure := Some (Fmt.str "P%d decided non-list %a" pid Value.pp v)
        | None -> failure := Some (Fmt.str "P%d undecided at terminal" pid))
      node.Explorer.decided
  in
  let stats = Explorer.explore ~max_states ~on_terminal:check_terminal cfg in
  let wait_free = Explorer.wait_free stats in
  {
    ok = !failure = None && wait_free;
    states = stats.Explorer.states;
    terminals = !terminals;
    wait_free;
    max_replay = !max_replay;
    max_visible_ops = !max_visible_ops;
    failure = !failure;
  }

(* Single-schedule run (for benchmarks): returns per-process responses
   and replay costs.  When causal tracing is enabled, each decoded
   fetch-and-cons is recorded as an invoke/complete pair with
   own_steps = 2 (fetch-and-cons + the destructive truncate — both
   shared-memory steps belong to the same abstract operation). *)
let run ?(max_steps = 1_000_000) ~target ~scripts ~schedule () =
  let cfg = config ~target ~scripts in
  let outcome =
    Runner.run ~max_steps ~procs:cfg.Explorer.procs ~env:cfg.Explorer.env
      ~schedule ()
  in
  if Wfs_obs.Causal.enabled () then begin
    let causal_obj = "sim.trunc/" ^ target.Object_spec.name in
    Wfs_obs.Causal.meta ~obj:causal_obj ~n:(Array.length scripts) ~bound:2;
    let pos = ref 0 in
    List.iter
      (fun (step : Runner.step) ->
        if Op.name step.Runner.op = "fetch-and-cons" then begin
          match Replay.decode_entry (Op.arg step.Runner.op) with
          | Replay.Op { pid; _ } ->
              (* sample on the op counter, issue ids only for traced
                 ops — mirrors the runtime's ticket-gated discipline *)
              if Wfs_obs.Causal.sampled !pos then begin
                let tr = Wfs_obs.Causal.issue () in
                Wfs_obs.Causal.invoke ~obj:causal_obj ~trace:tr ~pid;
                Wfs_obs.Causal.complete ~obj:causal_obj ~trace:tr ~pos:!pos
                  ~own_steps:2 ~help_rounds:0
              end;
              incr pos
          | Replay.State _ -> ()
        end)
      outcome.Runner.trace
  end;
  outcome
