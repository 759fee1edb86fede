(* Reference explorer for the differential tests: the textbook recursive
   two-pass algorithm, built only on [Explorer]'s public successor
   relation.  A gray/black DFS over [Value.Tbl]-keyed states finds
   cycles, terminals, invalid decides and truncation; a second memoized
   walk computes the longest-path step bounds.  No interning, no fused
   DP, no sleep sets, no pool and no metrics — [Explorer.explore] must
   report exactly what this reports. *)

open Wfs_spec
open Wfs_sim

type color = Gray | Black

let explore ?(max_states = 2_000_000) ?(max_depth = 10_000) ?(crashes = 0)
    (config : Explorer.config) : Explorer.stats =
  let colors : color Value.Tbl.t = Value.Tbl.create 4096 in
  let terminals : Explorer.terminal Value.Tbl.t = Value.Tbl.create 64 in
  let invalid : (int * Value.t) Value.Tbl.t = Value.Tbl.create 8 in
  let cyclic = ref false and stuck = ref None and truncation = ref None in
  let truncate cause = if !truncation = None then truncation := Some cause in
  let rec dfs (node : Explorer.node) depth =
    let k = Explorer.key node in
    match Value.Tbl.find_opt colors k with
    | Some Gray -> cyclic := true
    | Some Black -> ()
    | None when Value.Tbl.length colors >= max_states ->
        truncate Explorer.Budget_states
    | None when depth >= max_depth -> truncate Explorer.Budget_depth
    | None ->
        Value.Tbl.replace colors k Gray;
        (if Explorer.is_terminal node then
           Value.Tbl.replace terminals
             (Value.list
                [
                  Value.list
                    (Array.to_list (Array.map Value.of_option node.decided));
                  Value.int node.stepped;
                  Value.int node.crashed;
                ])
             {
               Explorer.decisions = Array.copy node.decided;
               who_stepped = node.stepped;
               who_crashed = node.crashed;
             }
         else
           match Explorer.successors_with_edges ~crashes config node with
           | exception Object_spec.Unknown_operation { obj; op } ->
               stuck :=
                 Some (-1, Fmt.str "unknown operation %a on %s" Op.pp op obj)
           | [] -> stuck := Some (-1, "no successor")
           | succs ->
               List.iter
                 (fun (pid, edge, succ) ->
                   (match edge with
                   | Explorer.Decide_edge v
                     when not (Explorer.decision_valid node ~pid v) ->
                       Value.Tbl.replace invalid
                         (Value.pair (Value.int pid) v)
                         (pid, v)
                   | _ -> ());
                   dfs succ (depth + 1))
                 succs);
        Value.Tbl.replace colors k Black
  in
  dfs (Explorer.initial config) 0;
  let truncated = !truncation <> None in
  let step_bounds =
    if !cyclic || truncated || !stuck <> None then None
    else
      let n = Array.length config.procs in
      let memo : int array Value.Tbl.t = Value.Tbl.create 4096 in
      let rec bound node =
        let k = Explorer.key node in
        match Value.Tbl.find_opt memo k with
        | Some b -> b
        | None ->
            let best = Array.make n 0 in
            List.iter
              (fun (pid, edge, succ) ->
                Array.iteri
                  (fun p v ->
                    (* a crash edge is not a step of anyone *)
                    let v =
                      match edge with
                      | Explorer.Crash_edge -> v
                      | _ -> if p = pid then v + 1 else v
                    in
                    if v > best.(p) then best.(p) <- v)
                  (bound succ))
              (Explorer.successors_with_edges ~crashes config node);
            Value.Tbl.replace memo k best;
            best
      in
      Some (bound (Explorer.initial config))
  in
  {
    states = Value.Tbl.length colors;
    terminals = Value.Tbl.fold (fun _ t acc -> t :: acc) terminals [];
    cyclic = !cyclic;
    stuck = !stuck;
    truncated;
    truncation = !truncation;
    invalid_decisions =
      Value.Tbl.fold (fun _ pv acc -> pv :: acc) invalid []
      |> List.sort (fun (p, v) (q, w) ->
             match Int.compare p q with 0 -> Value.compare v w | c -> c);
    step_bounds;
  }
