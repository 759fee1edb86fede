(* Reference solver for the differential tests: the textbook
   exists/forall strategy search, built only on [Solver.instance]'s
   public fields.  The protocol player assigns an action to each
   (pid, view) the first time a schedule reaches it, undoing the
   assignment on backtrack; the scheduler must then satisfy every
   undecided process's obligation, in pid order.  Validity and the
   already-pinned decision are checked at decide time, agreement at
   terminals.  No transposition table, no sleep sets, no interning, no
   pool and no metrics: it is the chronological search node for node,
   and [Solver.solve_with_stats] must reach the same verdict and
   strategy in no more nodes.  [row] assembles one census row from it
   the way [Census.measure] does. *)

open Wfs_spec
open Wfs_sim
open Wfs_hierarchy

exception Budget

type state = {
  views : Value.t list array;  (* responses per process, latest first *)
  decisions : int array;  (* -1 while undecided *)
  env_state : Env.state;
  stepped : int;  (* processes that took a step or decided *)
}

let set arr i v =
  let arr = Array.copy arr in
  arr.(i) <- v;
  arr

let solve ?(max_nodes = 20_000_000) (inst : Solver.instance) =
  let sigma : Solver.action Value.Tbl.t = Value.Tbl.create 1024 in
  let nodes = ref 0 in
  let rec schedules st k =
    incr nodes;
    if !nodes > max_nodes then raise Budget;
    if Array.for_all (fun d -> d >= 0) st.decisions then
      Array.for_all (fun d -> d = st.decisions.(0)) st.decisions && k ()
    else
      let rec obligations pid =
        if pid >= inst.n then k ()
        else if st.decisions.(pid) >= 0 then obligations (pid + 1)
        else step st pid (fun () -> obligations (pid + 1))
      in
      obligations 0
  and step st pid k =
    let key = Value.pair (Value.int pid) (Value.list st.views.(pid)) in
    match Value.Tbl.find_opt sigma key with
    | Some a -> apply st pid a k
    | None ->
        let ops =
          if List.length st.views.(pid) < inst.depth then
            List.map (fun (obj, op) -> Solver.Do (obj, op)) (inst.candidates pid)
          else []
        in
        List.exists
          (fun a ->
            Value.Tbl.replace sigma key a;
            apply st pid a k
            || begin
                 Value.Tbl.remove sigma key;
                 false
               end)
          (ops @ List.init inst.n (fun j -> Solver.Decide j))
  and apply st pid a k =
    let stepped = st.stepped lor (1 lsl pid) in
    match a with
    | Solver.Decide j ->
        (j = pid || st.stepped land (1 lsl j) <> 0)
        && (match Array.find_opt (fun d -> d >= 0) st.decisions with
           | Some pinned -> pinned = j
           | None -> true)
        && schedules { st with decisions = set st.decisions pid j; stepped } k
    | Solver.Do (obj, op) -> (
        match Env.apply inst.env st.env_state obj op with
        | exception Object_spec.Unknown_operation _ -> false
        | env_state, res ->
            let views = set st.views pid (res :: st.views.(pid)) in
            schedules { st with views; env_state; stepped } k)
  in
  let initial =
    {
      views = Array.make inst.n [];
      decisions = Array.make inst.n (-1);
      env_state = Env.init inst.env;
      stepped = 0;
    }
  in
  let verdict =
    match schedules initial (fun () -> true) with
    | true ->
        let strategy =
          Value.Tbl.fold
            (fun key chosen acc ->
              let pid, view = Value.as_pair key in
              { Solver.pid = Value.as_int pid; view; chosen } :: acc)
            sigma []
        in
        Solver.Solvable
          (List.sort
             (fun (a : Solver.assignment) (b : Solver.assignment) ->
               match Int.compare a.pid b.pid with
               | 0 -> Value.compare a.view b.view
               | c -> c)
             strategy)
    | false -> Solver.Unsolvable
    | exception Budget -> Solver.Out_of_budget { nodes = !nodes }
  in
  (verdict, !nodes)

(* One census row: the candidate initializations in order until one is
   solvable; [Budget] when none is and some run hit the budget.  Also
   returns the node total, the winning initialization and whether any
   run hit the budget (a later initialization may still have won). *)
let row ~max_nodes ~n ~depth (spec : Object_spec.t) =
  let rec go total capped = function
    | [] ->
        let outcome = if capped then Census.Budget else Census.Unsolvable in
        (outcome, total, None, capped)
    | init :: rest -> (
        let inst = Solver.of_spec ~n ~depth { spec with Object_spec.init } in
        match solve ~max_nodes inst with
        | Solver.Solvable _, nodes ->
            (Census.Solvable, total + nodes, Some init, capped)
        | Solver.Unsolvable, nodes -> go (total + nodes) capped rest
        | Solver.Out_of_budget _, nodes -> go (total + nodes) true rest)
  in
  go 0 false (Census.candidate_inits spec)
