(* Semantic independence of operations, computed from sequential
   specifications.

   Two operations are *independent at a state* when executing them in
   either order from that state reaches the same state AND each
   operation returns the same result in both orders — the commuting
   diamond.  This is the relation a partial-order reduction needs:
   along any schedule, adjacent steps that are independent at the
   state where they execute can be transposed without changing any
   process's observations, so one interleaving order stands for both.

   It generalizes the commute half of [Wfs_hierarchy.Interference]'s
   Theorem 6 analysis from unary register functions to arbitrary
   [Object_spec] semantics: where [Interference.classify_pair] checks
   f (g v) = g (f v) over a value domain, this checks the state diamond
   *and* result stability at the state where the pair executes.
   (Overwriting pairs — the other interfering class — are NOT
   independent: overwriting changes the loser's result.)

   Representation notes, because queries sit on the hot path of both
   reduced searches (one per sleeping candidate per edge): the
   conditional verdict at one concrete state is memoized per (object
   state, menu pair) in a flat tri-state [Bytes.t] row (0 unknown,
   1 independent, 2 dependent) — menu operations are indexed to dense
   ints once, so a warm query is two small hash lookups plus a byte
   read, with at most one full-depth state hash when the queried state
   changes (and the row of the most recently queried state is cached
   under physical equality, because one edge's sleeping candidates all
   query the same state).  Each diamond is computed lazily, at most
   once per (state, pair), and needs no closure of the object's state
   space.  Off-menu operations are memoized by value.  Operations on
   distinct objects always commute (an atomic apply touches one slot of
   the environment vector). *)

open Wfs_spec

type obj = {
  spec : Object_spec.t;
  op_idx : int Value.Tbl.t;  (* menu op -> dense index *)
  m : int;  (* menu size *)
  rows : Bytes.t Value.Tbl.t;
      (* object state -> m×m tri-state row of conditional verdicts *)
  mutable last_state : Value.t;  (* phys-eq row cache *)
  mutable last_row : Bytes.t;
  off_menu : bool Value.Tbl.t;
      (* conditional verdicts involving an off-menu op, keyed
         [Value.pair state (Value.pair op_a op_b)] *)
}

type t = {
  names : (string, int) Hashtbl.t;  (* object name -> index *)
  objs : obj array;  (* in declaration order, as [Env.state] *)
}

(* Enabledness: [apply] returns a value.  Unknown operations and
   domain errors (e.g. arithmetic on a non-integer) read as "not
   enabled here"; any other exception is treated the same way, which
   is conservative — a pair is independent at a state only if the
   diamond closes there *and* enabledness itself is order-insensitive. *)
let try_apply spec state op =
  match Object_spec.apply spec state op with
  | res -> Some res
  | exception _ -> None

(* The diamond at one state: both orders defined, same final state,
   both results order-stable.  States where an op is disabled demand
   that the other op not enable or disable it. *)
let diamond_at spec a b state =
  match (try_apply spec state a, try_apply spec state b) with
  | Some (sa, ra), Some (sb, rb) -> (
      match (try_apply spec sa b, try_apply spec sb a) with
      | Some (sab, rb'), Some (sba, ra') ->
          Value.equal sab sba && Value.equal ra ra' && Value.equal rb rb'
      | _ -> false)
  | Some (sa, _), None -> try_apply spec sa b = None
  | None, Some (sb, _) -> try_apply spec sb a = None
  | None, None -> true

let no_row = Bytes.create 0

let of_env (env : Env.t) =
  let specs = Array.of_list (Env.specs env) in
  let names = Hashtbl.create (Array.length specs) in
  Array.iteri (fun i (name, _) -> Hashtbl.replace names name i) specs;
  let objs =
    Array.map
      (fun (_, spec) ->
        let menu = Array.of_list spec.Object_spec.menu in
        let m = Array.length menu in
        let op_idx = Value.Tbl.create (2 * m) in
        Array.iteri
          (fun i op ->
            if not (Value.Tbl.mem op_idx op) then Value.Tbl.replace op_idx op i)
          menu;
        {
          spec;
          op_idx;
          m;
          rows = Value.Tbl.create 256;
          last_state = spec.Object_spec.init;
          last_row = no_row;
          off_menu = Value.Tbl.create 16;
        })
      specs
  in
  { names; objs }

(* [independent_at t state obj_a op_a obj_b op_b]: the diamond at one
   specific environment state — conditional independence.  Sound for
   sleep-set reductions because each transposition in the equivalence
   chain is checked exactly at the state where the adjacent pair
   executes.  Pairs that conflict somewhere may still commute here
   (two writes of the value already stored, a read against a no-op
   update). *)
let independent_at t (state : Env.state) obj_a op_a obj_b op_b =
  if not (String.equal obj_a obj_b) then true
  else
    match Hashtbl.find_opt t.names obj_a with
    | None -> false
    | Some i -> (
        let o = t.objs.(i) in
        let s = state.(i) in
        match
          (Value.Tbl.find_opt o.op_idx op_a, Value.Tbl.find_opt o.op_idx op_b)
        with
        | Some ia, Some ib -> (
            let row =
              (* [last_row != no_row] guards the fresh-object case:
                 [last_state] starts as [spec.init], which may be
                 physically the first state queried *)
              if o.last_row != no_row && o.last_state == s then o.last_row
              else
                let row =
                  match Value.Tbl.find_opt o.rows s with
                  | Some row -> row
                  | None ->
                      let row = Bytes.make (o.m * o.m) '\000' in
                      Value.Tbl.replace o.rows s row;
                      row
                in
                o.last_state <- s;
                o.last_row <- row;
                row
            in
            let cell = (ia * o.m) + ib in
            match Bytes.unsafe_get row cell with
            | '\001' -> true
            | '\002' -> false
            | _ ->
                let ok = diamond_at o.spec op_a op_b s in
                Bytes.unsafe_set row cell (if ok then '\001' else '\002');
                ok)
        | _ -> (
            (* off-menu operation: no dense index, value-keyed memo *)
            let key = Value.pair s (Value.pair op_a op_b) in
            match Value.Tbl.find_opt o.off_menu key with
            | Some ok -> ok
            | None ->
                let ok = diamond_at o.spec op_a op_b s in
                Value.Tbl.replace o.off_menu key ok;
                ok))
