(* The solver census recomputed by the reference oracle: one line per
   zoo object with its n=2 and n=3 verdicts (same depths and candidate
   initializations as [wfs census]), then the total search nodes.

   Usage: census_oracle BUDGET  (nodes per solver run) *)

open Wfs_hierarchy

let () =
  let max_nodes =
    match Array.map int_of_string_opt Sys.argv with
    | [| _; Some b |] when b >= 0 -> b
    | _ ->
        prerr_endline "usage: census_oracle BUDGET  (a node count >= 0)";
        exit 2
  in
  let outcome o = Fmt.str "%a" Census.pp_outcome o in
  let total = ref 0 in
  List.iter
    (fun spec ->
      let o2, n2, _, _ = Solver_oracle.row ~max_nodes ~n:2 ~depth:2 spec in
      let o3, n3, _, _ = Solver_oracle.row ~max_nodes ~n:3 ~depth:1 spec in
      total := !total + n2 + n3;
      Fmt.pr "%-22s n=2: %-10s n=3: %-10s (%d nodes)@."
        spec.Wfs_spec.Object_spec.name (outcome o2) (outcome o3) (n2 + n3))
    (Wfs_spec.Zoo.all ());
  Fmt.pr "total nodes: %d@." !total
