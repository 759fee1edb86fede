(* The consensus-protocol framework (§3).

   A protocol is a system of n processes over a shared-object
   environment; each process starts with its own identifier as input
   (consensus as election) and must decide.  [verify] checks the paper's
   conditions over *every* schedule, via the exhaustive explorer:

   - agreement: no execution has two decision values;
   - validity: if an execution decides P_j, then P_j took at least one
     step (rules out predefined choices);
   - wait-freedom: no process takes infinitely many steps without
     deciding (= joint-state graph acyclicity), and nothing gets stuck. *)

open Wfs_spec
open Wfs_sim

type t = {
  name : string;
  theorem : string;  (** which part of the paper this implements *)
  processes : int;
  config : Explorer.config;
}

type report = {
  agreement : bool;
  validity : bool;
  wait_free : bool;
  states : int;
  step_bounds : int array option;
  decisions_seen : Value.t list;  (** distinct decision values over all runs *)
  stuck : (int * string) option;
  truncated : bool;
  truncation : Explorer.truncation option;
      (** which budget cut exploration short, when [truncated] *)
  crashes : int;  (** crash-stop adversary budget the run was checked under *)
}

let passed r = r.agreement && r.validity && r.wait_free && not r.truncated

let make ~name ~theorem ~procs ~env =
  {
    name;
    theorem;
    processes = Array.length procs;
    config = { Explorer.procs; env };
  }

(* Agreement over the processes that decide: crashed processes have no
   decision slot to compare.  (Without crashes every slot is [Some].) *)
let agreement decisions =
  match Array.to_list decisions |> List.filter_map (fun d -> d) with
  | [] -> true
  | d0 :: rest -> List.for_all (Value.equal d0) rest

let verify ?(max_states = 2_000_000) ?max_depth ?(crashes = 0) ?pool t =
  let stats = Explorer.explore ~max_states ?max_depth ~crashes ?pool t.config in
  let agreement =
    List.for_all
      (fun (term : Explorer.terminal) -> agreement term.Explorer.decisions)
      stats.Explorer.terminals
  in
  (* Validity is checked at every decide event during exploration — the
     paper's condition applied to every history prefix. *)
  let validity = stats.Explorer.invalid_decisions = [] in
  let decisions_seen =
    List.sort_uniq Value.compare
      (List.concat_map
         (fun (term : Explorer.terminal) ->
           Array.to_list term.Explorer.decisions |> List.filter_map (fun d -> d))
         stats.Explorer.terminals)
  in
  {
    agreement;
    validity;
    (* Wait-freedom of the survivors: crash edges strictly grow the
       crashed mask, so any cycle lies among live processes — acyclicity
       plus terminality says every non-crashed process decides on every
       schedule, whatever the adversary crashes. *)
    wait_free = Explorer.wait_free stats;
    states = stats.Explorer.states;
    step_bounds = stats.Explorer.step_bounds;
    decisions_seen;
    stuck = stats.Explorer.stuck;
    truncated = stats.Explorer.truncated;
    truncation = stats.Explorer.truncation;
    crashes;
  }

(* Spot-check a protocol on a single schedule (used by tests and demos):
   returns the decisions, checking completion. *)
let run_once ?(max_steps = 100_000) ~schedule t =
  Runner.run ~max_steps ~procs:t.config.Explorer.procs
    ~env:t.config.Explorer.env ~schedule ()

(* --- counterexample extraction ---

   When verification fails, produce the concrete schedule that breaks
   the protocol: the sequence of process ids whose steps lead to a
   disagreeing terminal or an invalid decision.  Replaying it through
   {!run_once} with [Scheduler.of_list] reproduces the failure. *)

type step = Wfs_obs.Counterexample.step = Step of int | Crash of int

type violation = {
  kind : [ `Disagreement | `Invalid_decision ];
  schedule : step list;  (** steps and crash points, in order *)
  decisions : (int * Value.t) list;
}

let decisions_of (node : Explorer.node) =
  Array.to_list node.Explorer.decided
  |> List.mapi (fun pid d -> (pid, d))
  |> List.filter_map (fun (pid, d) -> Option.map (fun v -> (pid, v)) d)

(* The search is a DFS in successor order over the unreduced graph with
   visited-set pruning; the violation returned is the one at the
   DFS-first violating node. *)
let find_violation ?(max_states = 2_000_000) ?(crashes = 0) t =
  let cfg = t.config in
  let exception Found of violation in
  let violation_at node path kind =
    raise
      (Found { kind; schedule = List.rev path; decisions = decisions_of node })
  in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  let rec dfs node path =
    let k = Explorer.key node in
    if (not (Hashtbl.mem seen k)) && Hashtbl.length seen < max_states
    then begin
      Hashtbl.replace seen k ();
      if Explorer.is_terminal node then begin
        if not (agreement node.Explorer.decided) then
          violation_at node path `Disagreement
      end
      else
        List.iter
          (fun (pid, edge, succ) ->
            let entry =
              match edge with
              | Explorer.Crash_edge -> Crash pid
              | Explorer.Decide_edge _ | Explorer.Op_edge -> Step pid
            in
            (match edge with
            | Explorer.Decide_edge v
              when not (Explorer.decision_valid node ~pid v) ->
                violation_at succ (entry :: path) `Invalid_decision
            | Explorer.Decide_edge _ | Explorer.Op_edge
            | Explorer.Crash_edge ->
                ());
            dfs succ (entry :: path))
          (Explorer.successors_with_edges ~crashes cfg node)
    end
  in
  match dfs (Explorer.initial cfg) [] with
  | () -> None
  | exception Found v -> Some v

(* --- replayable export ---

   A violation plus the registry key and process count is everything
   needed to re-execute it: the joint-state graph is deterministic given
   "who steps next". *)

(* [violation.schedule] already uses [Counterexample.step], so this is a
   pure repackaging. *)
let violation_to_counterexample ~protocol ~n (v : violation) =
  {
    Wfs_obs.Counterexample.protocol;
    n;
    kind =
      (match v.kind with
      | `Disagreement -> Wfs_obs.Counterexample.Disagreement
      | `Invalid_decision -> Wfs_obs.Counterexample.Invalid_decision);
    schedule = v.schedule;
    decisions = v.decisions;
  }

(* Deterministic re-execution of a schedule through the explorer's
   successor relation, checking the paper's conditions at each step —
   the engine behind [wfs replay].  [Crash] entries re-apply the
   adversary's halts; the budget granted to the successor relation is
   exactly the number of crash entries in the schedule, so replays never
   invent crash freedom the original search did not have. *)
let replay t ~schedule =
  let cfg = t.config in
  let crashes =
    List.length (List.filter (function Crash _ -> true | Step _ -> false)
                   schedule)
  in
  let rec go node path = function
    | [] ->
        if
          Explorer.is_terminal node && not (agreement node.Explorer.decided)
        then
          Some
            {
              kind = `Disagreement;
              schedule = List.rev path;
              decisions = decisions_of node;
            }
        else None
    | entry :: rest -> (
        let pid = Wfs_obs.Counterexample.step_pid entry in
        let want_crash =
          match entry with Crash _ -> true | Step _ -> false
        in
        match
          List.find_opt
            (fun (p, e, _) ->
              p = pid && want_crash = (e = Explorer.Crash_edge))
            (Explorer.successors_with_edges ~crashes cfg node)
        with
        | None ->
            invalid_arg
              (Fmt.str
                 "Protocol.replay: process %d cannot %s at schedule \
                  position %d"
                 pid
                 (if want_crash then "crash" else "step")
                 (List.length path))
        | Some (_, edge, succ) -> (
            match edge with
            | Explorer.Decide_edge v
              when not (Explorer.decision_valid node ~pid v) ->
                Some
                  {
                    kind = `Invalid_decision;
                    schedule = List.rev (entry :: path);
                    decisions = decisions_of succ;
                  }
            | Explorer.Decide_edge _ | Explorer.Op_edge
            | Explorer.Crash_edge ->
                go succ (entry :: path) rest))
  in
  go (Explorer.initial cfg) [] schedule

(* [replay] against a loaded counterexample: does re-executing its
   schedule reproduce the recorded violation? *)
let replay_counterexample t (ce : Wfs_obs.Counterexample.t) =
  match replay t ~schedule:ce.Wfs_obs.Counterexample.schedule with
  | None -> Error "schedule re-executed without any violation"
  | Some v ->
      let kind_matches =
        match (v.kind, ce.Wfs_obs.Counterexample.kind) with
        | `Disagreement, Wfs_obs.Counterexample.Disagreement
        | `Invalid_decision, Wfs_obs.Counterexample.Invalid_decision ->
            true
        | _ -> false
      in
      let decisions_match =
        List.length v.decisions
          = List.length ce.Wfs_obs.Counterexample.decisions
        && List.for_all2
             (fun (p, d) (p', d') -> p = p' && Value.equal d d')
             v.decisions ce.Wfs_obs.Counterexample.decisions
      in
      if not kind_matches then
        Error
          (Fmt.str "reproduced a %s, but the file records a %s"
             (match v.kind with
             | `Disagreement -> "disagreement"
             | `Invalid_decision -> "invalid decision")
             (Wfs_obs.Counterexample.kind_to_string
                ce.Wfs_obs.Counterexample.kind))
      else if not decisions_match then
        Error "violation reproduced, but with different decisions"
      else Ok v

let pp_violation ppf v =
  Fmt.pf ppf "@[<v>%s on schedule [%a]@ decisions: %a@]"
    (match v.kind with
    | `Disagreement -> "DISAGREEMENT"
    | `Invalid_decision -> "INVALID DECISION")
    Fmt.(list ~sep:(any "; ") Wfs_obs.Counterexample.pp_step)
    v.schedule
    Fmt.(
      list ~sep:(any ", ") (fun ppf (p, d) -> Fmt.pf ppf "P%d=%a" p Value.pp d))
    v.decisions

let truncation_label = function
  | None -> "no"
  | Some Explorer.Budget_states -> "states-budget"
  | Some Explorer.Budget_depth -> "depth-budget"

(* [crashes=] appears only for crash-budget runs, so crash-free reports
   are byte-identical to what the repo printed before the fault layer. *)
let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>agreement=%b validity=%b wait-free=%b states=%d truncated=%s%s@ \
     decisions seen: %a%a%a@]"
    r.agreement r.validity r.wait_free r.states
    (truncation_label r.truncation)
    (if r.crashes > 0 then Printf.sprintf " crashes=%d" r.crashes else "")
    Fmt.(list ~sep:(any ", ") Value.pp)
    r.decisions_seen
    Fmt.(
      option (fun ppf b ->
          Fmt.pf ppf "@ step bounds: %a" (Fmt.array ~sep:(Fmt.any " ") Fmt.int) b))
    r.step_bounds
    Fmt.(
      option (fun ppf (p, reason) -> Fmt.pf ppf "@ STUCK P%d: %s" p reason))
    r.stuck
