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

   [verify] explores every interleaving: the longest view defines the
   linearization order (coherence makes it well-defined), and every
   process's responses must match replaying that order. *)

open Wfs_spec
open Wfs_sim

(* The shared-memory behaviour is exactly the Figure 4-5 protocol over
   tagged invocations; the response computation is deterministic local
   replay of the returned view, performed at verification time (where it
   happens cannot affect any other process). *)
let config ~scripts = Consensus_fac.config ~scripts

(* Derive (pid, op, response) triples from a terminal's decisions: each
   decided (item, view) yields response = apply(op, eval(reverse view)). *)
let responses_of_decisions ~(target : Object_spec.t)
    (decided : Value.t option array) =
  Array.to_list decided
  |> List.concat_map (fun d ->
         match d with
         | Some (Value.List entries) ->
             List.map
               (fun e ->
                 let item, view = Value.as_pair e in
                 match Replay.decode_entry item with
                 | Replay.Op { pid; seq; op } ->
                     let result, _, _ =
                       Replay.response target (Value.as_list view) op
                     in
                     Ok (pid, seq, op, result)
                 | Replay.State _ -> Error "state entry as item"
                 | exception Invalid_argument m -> Error m)
               entries
         | Some v -> [ Error (Fmt.str "bad decision %a" Value.pp v) ]
         | None -> [ Error "undecided at terminal" ])

type verification = {
  ok : bool;
  states : int;
  terminals : int;
  failure : string option;
}

let check_terminal ~target ~n (node : Explorer.node) =
  (* views must be coherent (this repeats the Consensus_fac check and
     additionally pins responses) *)
  let decisions = node.Explorer.decided in
  let triples = responses_of_decisions ~target decisions in
  match List.find_opt (function Error _ -> true | Ok _ -> false) triples with
  | Some (Error e) -> Some e
  | Some (Ok _) -> None (* unreachable *)
  | None ->
      let triples =
        List.filter_map (function Ok t -> Some t | Error _ -> None) triples
      in
      (* the longest full view is the linearization order *)
      let views =
        Array.to_list decisions
        |> List.concat_map (fun d ->
               match d with
               | Some (Value.List entries) ->
                   List.map
                     (fun e ->
                       let item, view = Value.as_pair e in
                       item :: Value.as_list view)
                     entries
               | Some _ | None -> [])
      in
      if not (Merge.coherent views) then Some "views not coherent"
      else begin
        let longest =
          List.fold_left
            (fun acc v -> if List.length v > List.length acc then v else acc)
            [] views
        in
        (* replay the linearization chronologically *)
        let expected = Hashtbl.create 16 in
        let state = ref target.Object_spec.init in
        List.iter
          (fun item ->
            match Replay.decode_entry item with
            | Replay.Op { pid; seq; op } ->
                let state', res = Object_spec.apply target !state op in
                state := state';
                Hashtbl.replace expected (pid, seq) res
            | Replay.State _ -> ())
          (List.rev longest);
        let mismatch =
          List.find_opt
            (fun (pid, seq, _op, result) ->
              match Hashtbl.find_opt expected (pid, seq) with
              | Some want -> not (Value.equal want result)
              | None -> true)
            triples
        in
        match mismatch with
        | Some (pid, seq, op, result) ->
            Some
              (Fmt.str "P%d op %d (%a) responded %a, linearization dictates %a"
                 pid seq Op.pp op Value.pp result Value.pp
                 (Option.value
                    ~default:(Value.str "<missing>")
                    (Hashtbl.find_opt expected (pid, seq))))
        | None ->
            (* each process's items must all appear in the longest view *)
            let missing =
              List.exists
                (fun (pid, seq, _, _) ->
                  not (Hashtbl.mem expected (pid, seq)))
                triples
            in
            if missing then Some "an operation is missing from the longest view"
            else begin
              ignore n;
              None
            end
      end

let verify ?(max_states = 5_000_000) ~target ~scripts () =
  let n = Array.length scripts in
  let terminals = ref 0 in
  let failure = ref None in
  let on_terminal node =
    incr terminals;
    match check_terminal ~target ~n node with
    | Some e -> if !failure = None then failure := Some e
    | None -> ()
  in
  let stats = Explorer.explore ~max_states ~on_terminal (config ~scripts) in
  {
    ok = !failure = None && Explorer.wait_free stats;
    states = stats.Explorer.states;
    terminals = !terminals;
    failure = !failure;
  }

(* Single-schedule run returning the abstract (pid, op, result) list in
   linearization order, for demos. *)
let run ?(max_steps = 1_000_000) ~target ~scripts ~schedule () =
  let cfg = config ~scripts in
  let outcome =
    Runner.run ~max_steps ~procs:cfg.Explorer.procs ~env:cfg.Explorer.env
      ~schedule ()
  in
  let triples =
    responses_of_decisions ~target
      (Array.of_list
         (List.map (fun (_, d) -> Some d) outcome.Runner.decisions))
  in
  ( outcome,
    List.filter_map (function Ok t -> Some t | Error _ -> None) triples )
