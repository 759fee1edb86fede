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
   and judges every terminal state with [check_witness]: the
   construction must be linearizable with the final log's
   fetch-and-cons order as the linearization order. *)

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

let env =
  Env.make
    [ (log_name, Fetch_and_cons.list_object ~name:log_name ~items:[] ()) ]

let config ~target ~scripts =
  let procs =
    Array.mapi (fun pid script -> front_end ~target ~pid ~script) scripts
  in
  { Explorer.procs; env }

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

let check_terminal ~target ~scripts (node : Explorer.node) =
  let log = Value.as_list (Env.get node.Explorer.env_state env log_name) in
  Wfs_obs.Metrics.Gauge.set_max M.log_length (List.length log);
  Result.bind (Replay.decisions node.Explorer.decided) (fun results ->
      Replay.linearizes target ~order:log ~ops:scripts ~results)

let verify ?(max_states = 2_000_000) ~target ~scripts () =
  let v =
    Explorer.check ~max_states (config ~target ~scripts)
      ~terminal:(check_terminal ~target ~scripts)
  in
  Wfs_obs.Metrics.Counter.incr M.verify_runs;
  Wfs_obs.Metrics.Counter.add M.states v.Explorer.states;
  Wfs_obs.Metrics.Counter.add M.terminals v.Explorer.terminals;
  v

(* Single-schedule execution, plus the induced *abstract* history of
   target-object operations (each spanning exactly its fetch-and-cons
   step), for linearizability cross-checks. *)
let run ?(max_steps = 100_000) ~target ~scripts ~schedule () =
  let cfg = config ~target ~scripts in
  let outcome =
    Runner.run ~max_steps ~procs:cfg.Explorer.procs ~env:cfg.Explorer.env
      ~schedule ()
  in
  let abstract =
    List.concat_map
      (fun (step : Runner.step) ->
        match Replay.decode_entry (Op.arg step.Runner.op) with
        | Replay.Op { pid; op; _ } ->
            let result, _, _ =
              Replay.response target (Value.as_list step.Runner.res) op
            in
            [
              Wfs_history.Event.invoke ~pid ~obj:target.Object_spec.name op;
              Wfs_history.Event.respond ~pid ~obj:target.Object_spec.name result;
            ]
        | Replay.State _ -> [])
      outcome.Runner.trace
  in
  (outcome, abstract)
