(* Theorem 26, end to end: an object that solves n-process consensus is
   universal.

   The proof is a two-step reduction, and this module composes the two
   executable steps:

     consensus object  --(Figure 4-5)-->  fetch-and-cons
     fetch-and-cons    --(§4.1 log)--->   any sequential object

   Front-ends run the Figure 4-5 protocol to thread their TAGGED
   INVOCATION onto the shared list; the view returned by fetch-and-cons
   is exactly the log of predecessors, which the front-end replays
   through the sequential specification to compute its response — no
   shared state beyond registers and consensus objects is ever used.

   [verify] explores every interleaving: the longest full view fixes the
   linearization order, and [check_witness] judges every process's
   responses against the target object in that order. *)

open Wfs_spec
open Wfs_sim

(* The shared-memory behaviour is exactly the Figure 4-5 protocol over
   tagged invocations; the response computation is deterministic local
   replay of the returned view, performed at verification time (where it
   happens cannot affect any other process). *)
let config ~scripts = Consensus_fac.config ~scripts

(* The response a decided (item, view) pair stands for: the item's
   operation applied after replaying its view. *)
let response ~(target : Object_spec.t) entry =
  let item, view = Value.as_pair entry in
  match Replay.decode_entry item with
  | Replay.Op { pid; seq; op } ->
      let result, _, _ = Replay.response target (Value.as_list view) op in
      (pid, seq, op, result)
  | Replay.State _ -> invalid_arg "Composed: state entry as item"

let check_terminal ~target ~scripts (node : Explorer.node) =
  Result.bind (Replay.decisions node.Explorer.decided) (fun decided ->
      let result e =
        let _, _, _, r = response ~target e in
        r
      in
      match Array.map (List.map result) decided with
      | exception Invalid_argument e -> Error e
      | results ->
          Replay.linearizes target ~order:(Consensus_fac.longest_view decided)
            ~ops:scripts ~results)

let verify ?(max_states = 5_000_000) ~target ~scripts () =
  Explorer.check ~max_states (config ~scripts)
    ~terminal:(check_terminal ~target ~scripts)

(* Single-schedule run returning the abstract (pid, seq, op, result)
   list, for demos. *)
let run ?(max_steps = 1_000_000) ~target ~scripts ~schedule () =
  let cfg = config ~scripts in
  let outcome =
    Runner.run ~max_steps ~procs:cfg.Explorer.procs ~env:cfg.Explorer.env
      ~schedule ()
  in
  ( outcome,
    List.concat_map
      (fun (_, d) -> List.map (response ~target) (Value.as_list d))
      outcome.Runner.decisions )
