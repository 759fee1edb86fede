(* The wait-free universal construction of §4.1 (Figures 4-1 / 4-2).

   The representation object is a fetch-and-cons list.  A front-end
   executes an abstract operation in two steps:

   1. fetch-and-cons the (tagged) invocation onto the log — this is
      where the operation "really happens": its position in the log is
      its linearization point;
   2. locally replay the returned predecessor log through the sequential
      specification to compute the response.

   Step 2 is pure local computation, so each abstract operation costs
   exactly ONE shared-memory operation: the construction is trivially
   wait-free (but not strongly wait-free — the k-th operation replays
   k-1 log entries; see [Truncating_universal]).

   [verify] exhaustively explores all interleavings of the front-ends
   and checks, at every terminal state, that every process's responses
   equal those dictated by replaying the final log in order — i.e. that
   the construction is linearizable with the fetch-and-cons order as the
   linearization order. *)

open Wfs_spec
open Wfs_sim

let log_name = "log"

(* Front-end for process [pid] applying the fixed [script] of abstract
   operations.  Local state: (next-op index, accumulated responses).
   When the script is exhausted the process decides its response list. *)
let front_end ~(target : Object_spec.t) ~pid ~script =
  let script = Array.of_list script in
  let encode idx acc = Value.pair (Value.int idx) (Value.list acc) in
  Process.make ~pid ~init:(encode 0 []) (fun local ->
      let idx_v, acc_v = Value.as_pair local in
      let idx = Value.as_int idx_v in
      let acc = Value.as_list acc_v in
      if idx >= Array.length script then Process.decide (Value.list (List.rev acc))
      else
        let op = script.(idx) in
        Process.invoke ~obj:log_name
          (Fetch_and_cons.fetch_and_cons (Replay.op_entry ~pid ~seq:idx op))
          (fun prior ->
            let result, _state, _cost =
              Replay.response target (Value.as_list prior) op
            in
            encode (idx + 1) (result :: acc)))

let config ~target ~scripts =
  let n = Array.length scripts in
  let procs =
    Array.init n (fun pid -> front_end ~target ~pid ~script:scripts.(pid))
  in
  let env =
    Env.make [ (log_name, Fetch_and_cons.list_object ~name:log_name ~items:[] ()) ]
  in
  { Explorer.procs; env }

(* Expected responses per process, by replaying a final log (newest
   first) in chronological order. *)
let expected_responses ~(target : Object_spec.t) ~n (final_log : Value.t list) =
  let chronological = List.rev final_log in
  let results = Array.make n [] in
  let state = ref target.Object_spec.init in
  List.iter
    (fun entry ->
      match Replay.decode_entry entry with
      | Replay.Op { pid; op; _ } ->
          let state', res = Object_spec.apply target !state op in
          state := state';
          results.(pid) <- res :: results.(pid)
      | Replay.State _ -> ())
    chronological;
  Array.map List.rev results

type verification = {
  ok : bool;
  states : int;
  terminals : int;
  wait_free : bool;
  failure : string option;
}

(* Verification telemetry: the explorer feeds [explorer.states] live;
   [states] here gets each run's total at the end, for `wfs top`'s
   log-univ line; [log_length] is the operational signal of the
   log-based construction — the replay cost of the next op. *)
module M = struct
  open Wfs_obs.Metrics

  let verify_runs = Counter.make "log_universal.verify.runs"
  let states = Counter.make "log_universal.states"
  let terminals = Counter.make "log_universal.terminals"
  let log_length = Gauge.make "log_universal.log_length"
end

let verify ?(max_states = 2_000_000) ~target ~scripts () =
  let cfg = config ~target ~scripts in
  let n = Array.length scripts in
  let terminals = ref 0 in
  let failure = ref None in
  let check_terminal (node : Explorer.node) =
    incr terminals;
    let final_log = Value.as_list (Env.get node.Explorer.env_state cfg.Explorer.env log_name) in
    Wfs_obs.Metrics.Gauge.set_max M.log_length (List.length final_log);
    let expected = expected_responses ~target ~n final_log in
    Array.iteri
      (fun pid decided ->
        match decided with
        | Some (Value.List results) ->
            if not (List.equal Value.equal results expected.(pid)) then
              failure :=
                Some
                  (Fmt.str
                     "P%d responded %a but the log order dictates %a" pid
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
  let states = stats.Explorer.states in
  Wfs_obs.Metrics.Counter.incr M.verify_runs;
  Wfs_obs.Metrics.Counter.add M.states states;
  Wfs_obs.Metrics.Counter.add M.terminals !terminals;
  let wait_free = Explorer.wait_free stats in
  {
    ok = !failure = None && wait_free;
    states;
    terminals = !terminals;
    wait_free;
    failure = !failure;
  }

(* Single-schedule execution, plus the induced *abstract* history of
   target-object operations (each spanning exactly its fetch-and-cons
   step), for linearizability cross-checks.  When causal tracing is
   enabled the decoded fetch-and-cons order is recorded as
   invoke/complete events (own_steps = 1 — the construction's whole
   point: one shared-memory step per abstract operation). *)
let run ?(max_steps = 100_000) ~target ~scripts ~schedule () =
  let cfg = config ~target ~scripts in
  let outcome =
    Runner.run ~max_steps ~procs:cfg.Explorer.procs ~env:cfg.Explorer.env
      ~schedule ()
  in
  let causal = Wfs_obs.Causal.enabled () in
  let causal_obj = "sim.log/" ^ target.Object_spec.name in
  if causal then
    Wfs_obs.Causal.meta ~obj:causal_obj ~n:(Array.length scripts) ~bound:1;
  let pos = ref 0 in
  let abstract =
    List.concat_map
      (fun (step : Runner.step) ->
        match Replay.decode_entry (Op.arg step.Runner.op) with
        | Replay.Op { pid; op; _ } ->
            let result, _, _ =
              Replay.response target (Value.as_list step.Runner.res) op
            in
            if causal then begin
              (* sample on the op counter, issue ids only for traced
                 ops — mirrors the runtime's ticket-gated discipline *)
              if Wfs_obs.Causal.sampled !pos then begin
                let tr = Wfs_obs.Causal.issue () in
                Wfs_obs.Causal.invoke ~obj:causal_obj ~trace:tr ~pid;
                Wfs_obs.Causal.complete ~obj:causal_obj ~trace:tr ~pos:!pos
                  ~own_steps:1 ~help_rounds:0
              end;
              incr pos
            end;
            [
              Wfs_history.Event.invoke ~pid ~obj:target.Object_spec.name op;
              Wfs_history.Event.respond ~pid ~obj:target.Object_spec.name result;
            ]
        | Replay.State _ -> [])
      outcome.Runner.trace
  in
  (outcome, abstract)
