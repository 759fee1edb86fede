(* Valency analysis (§3, proof technique of Theorems 2, 6, 11, 22).

   The valency of a protocol state is the set of decision values reachable
   from it.  A state is bivalent if more than one value is reachable,
   univalent otherwise; a *critical* state is a bivalent state all of
   whose successors are univalent — the paper's proofs all hinge on
   maneuvering a protocol into such a state and deriving a contradiction
   from what the pending operations can observe.

   This module computes valencies by memoized DP over the joint state
   graph (protocols must be wait-free, hence the graph acyclic) and finds
   critical states, so the objects' behaviour at the heart of each proof
   can be inspected and tested concretely. *)

open Wfs_spec

module Vset = Set.Make (Value)

type valency = Vset.t

let is_bivalent v = Vset.cardinal v > 1
let is_univalent v = Vset.cardinal v = 1

type critical = {
  state : Explorer.node;
  branches : (int * Explorer.node * valency) list;
      (** per undecided process: the successor and its (univalent)
          valency *)
}

(* Decision values appearing in a terminal state. *)
let terminal_values node =
  Array.fold_left
    (fun acc d -> match d with Some v -> Vset.add v acc | None -> acc)
    Vset.empty node.Explorer.decided

module M = struct
  open Wfs_obs.Metrics

  let memo_hits = Counter.make "valency.memo_hits"
  let memo_misses = Counter.make "valency.memo_misses"
  let critical_searches = Counter.make "valency.critical_searches"
  let critical_found = Counter.make "valency.critical_found"
end

let analyze ?(crashes = 0) (config : Explorer.config) =
  if crashes < 0 then invalid_arg "Valency.analyze: crashes < 0";
  let memo : (string, valency) Hashtbl.t = Hashtbl.create 4096 in
  let rec valency node =
    let k = Explorer.key node in
    match Hashtbl.find_opt memo k with
    | Some v ->
        Wfs_obs.Metrics.Counter.incr M.memo_hits;
        v
    | None ->
        Wfs_obs.Metrics.Counter.incr M.memo_misses;
        let v =
          if Explorer.is_terminal node then terminal_values node
          else
            List.fold_left
              (fun acc (_, succ) -> Vset.union acc (valency succ))
              Vset.empty
              (Explorer.successors ~crashes config node)
        in
        Hashtbl.replace memo k v;
        v
  in
  let root = Explorer.initial config in
  let root_valency = valency root in
  (root_valency, valency)

(* Search for a critical state: DFS from the root through bivalent states
   until one is found all of whose successors are univalent.  Returns the
   first found, if any.  (For a correct wait-free consensus protocol one
   always exists: the root is bivalent and every terminal univalent.) *)
let find_critical ?crashes (config : Explorer.config) =
  Wfs_obs.Metrics.Counter.incr M.critical_searches;
  let _, valency = analyze ?crashes config in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  let exception Found of critical in
  let rec dfs node =
    let k = Explorer.key node in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      if is_bivalent (valency node) && not (Explorer.is_terminal node) then begin
        let succs = Explorer.successors ?crashes config node in
        let branches =
          List.map (fun (pid, succ) -> (pid, succ, valency succ)) succs
        in
        if List.for_all (fun (_, _, v) -> is_univalent v) branches then
          raise (Found { state = node; branches })
        else
          List.iter
            (fun (_, succ, v) -> if is_bivalent v then dfs succ)
            branches
      end
    end
  in
  match dfs (Explorer.initial config) with
  | () -> None
  | exception Found c ->
      Wfs_obs.Metrics.Counter.incr M.critical_found;
      Some c

let pp_valency ppf v =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") Value.pp) (Vset.elements v)
