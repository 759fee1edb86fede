(* The expected outputs every engine workload is checked against.

   Census rows record what is invariant under solver optimizations: the
   verdict of each cell, the initialization that wins it and how many
   candidate initializations were examined.  Node counts are not
   expected values: a transposition or partial-order change shrinks
   them without changing any verdict.  Explorer rows record the number
   of distinct reachable states, which reductions never change (they
   skip redundant edges, never states).

   Values were read from [wfs census] and [wfs verify] at j=1; winning
   initializations are [Value.show] strings. *)

open Wfs

type cell = { outcome : Census.outcome; init : string option }

type census_row = {
  obj : string;
  max_nodes : int;  (** per-solve node budget the row runs under *)
  inits : int;
  two : cell;
  three : cell;
}

let solvable init = { outcome = Census.Solvable; init = Some init }
let unsolvable = { outcome = Census.Unsolvable; init = None }
let budget = { outcome = Census.Budget; init = None }
let row ?(max_nodes = 20_000_000) obj inits two three = { obj; max_nodes; inits; two; three }

(* Every zoo object whose n=2 and n=3 cells both conclude within the
   default 20M-node budget, in zoo order. *)
let census_conclusive =
  [
    row "atomic-register" 4 unsolvable unsolvable;
    row "test-and-set" 2 (solvable "0") unsolvable;
    row "swap-register" 4 (solvable "\"_|_\"") unsolvable;
    row "fetch-and-add" 3 (solvable "0") unsolvable;
    row "classical-rmw" 4 (solvable "0") unsolvable;
    row "fifo-queue" 13 (solvable "[0]") unsolvable;
    row "stack" 13 (solvable "[0]") unsolvable;
    row "priority-queue" 10 (solvable "[0]") unsolvable;
    row "set" 7 (solvable "[]") unsolvable;
    row "counter" 5 (solvable "0") unsolvable;
    row "fifo-channel" 16 unsolvable unsolvable;
    row "memory+move" 16 (solvable "[0; \"_|_\"]") unsolvable;
    row "memory+swap" 16 (solvable "[0; \"_|_\"]") unsolvable;
    row "augmented-queue" 13 (solvable "[]") unsolvable;
    row "compare-and-swap" 4 (solvable "\"_|_\"") (solvable "\"_|_\"");
    row "fetch-and-cons" 13 (solvable "[]") (solvable "[]");
    row "ordered-broadcast" 11 (solvable "([], [0; 0])") unsolvable;
    row "consensus-object" 4 (solvable "[]") (solvable "[]");
  ]

(* The n-assignment row under a 25,000-node budget per solve: every
   one of the 16 initializations exhausts it at both n=2 and n=3, so
   both cells must read [budget] (anything else would be an unsound
   verdict) and the row searches a fixed 32 x 25,000 nodes (plus one
   per solve). *)
let census_capped = row ~max_nodes:25_000 "n-assignment" 16 budget budget

(* The census workload: the conclusive rows, then the capped one. *)
let census = census_conclusive @ [ census_capped ]

type verify_row = { key : string; n : int; states : int }

(* The five largest complete registry explorations. *)
let verify =
  [
    { key = "move"; n = 5; states = 232_251 };
    { key = "memory-swap"; n = 5; states = 52_827 };
    { key = "augmented-queue"; n = 5; states = 40_696 };
    { key = "ordered-broadcast"; n = 5; states = 40_696 };
    { key = "n-assignment"; n = 3; states = 43_209 };
  ]

(* {1 Checks}  Each returns the mismatches found, empty when the output
   is as expected. *)

let outcome_label = function
  | Census.Solvable -> "solvable"
  | Census.Unsolvable -> "unsolvable"
  | Census.Budget -> "budget"

let show_init = function None -> "-" | Some v -> Value.show v

let check_census (e : census_row) (m : Census.measurement) =
  let cell n (want : cell) (outcome, _nodes) init =
    let got = Option.map Value.show init in
    if want.outcome <> outcome || want.init <> got then
      [
        Printf.sprintf "%s n=%d: expected %s init %s, got %s init %s" e.obj n
          (outcome_label want.outcome)
          (Option.value ~default:"-" want.init)
          (outcome_label outcome) (show_init init);
      ]
    else []
  in
  (if m.object_name <> e.obj then
     [ Printf.sprintf "expected row %s, got %s" e.obj m.object_name ]
   else [])
  @ (if m.inits_tried <> e.inits then
       [
         Printf.sprintf "%s: expected %d initializations, got %d" e.obj e.inits
           m.inits_tried;
       ]
     else [])
  @ cell 2 e.two m.two_proc m.winning_init2
  @ cell 3 e.three m.three_proc m.winning_init3

let check_verify (e : verify_row) (r : Protocol.report) =
  let label = Printf.sprintf "%s n=%d" e.key e.n in
  (if r.states <> e.states then
     [ Printf.sprintf "%s: expected %d states, got %d" label e.states r.states ]
   else [])
  @
  if not (Protocol.passed r) then
    [ Printf.sprintf "%s: verification did not pass" label ]
  else []
