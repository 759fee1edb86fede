(** Bounded-protocol consensus solvability by strategy synthesis.

    Decides the exists-protocol / forall-schedules game exactly, for
    protocols in which every process performs at most [depth] operations
    before deciding.  [Unsolvable] is a machine-checked proof that no
    such bounded wait-free consensus protocol exists — the finite
    analogue of the paper's Theorem 2 and Theorem 11 impossibility
    arguments; [Solvable] carries a synthesized protocol. *)

open Wfs_spec
open Wfs_sim

type action = Do of string * Op.t | Decide of int

type instance = {
  env : Env.t;
  n : int;
  depth : int;
  candidates : int -> (string * Op.t) list;
      (** the operation menu per process, honouring per-process
          ownership (channel endpoints, etc.) *)
}

(** One strategy entry: at local view [view] (latest response first),
    process [pid] performs [chosen]. *)
type assignment = { pid : int; view : Value.t; chosen : action }

type verdict =
  | Solvable of assignment list
  | Unsolvable
  | Out_of_budget of { nodes : int }

(** Build an instance over a single object, with the object's menu as the
    candidate set.  Raises [Invalid_argument] when [n < 1] or
    [depth < 0]. *)
val of_spec :
  ?extra_candidates:(string * Op.t) list ->
  n:int -> depth:int -> Object_spec.t -> instance

(** Shared solver context: the view/env/position intern arenas and the
    transposition store, reusable across solves of the SAME arity [n] —
    the census threads one context through every depth cell (and every
    candidate initial state) of an (object, n) row, so later solves
    replay subgames classified by earlier ones.  Positions encode
    remaining (not consumed) step budget, which is what makes entries
    transpose across different depth bounds; σ-footprints keep reuse
    sound even though each solve grows a fresh strategy table. *)
module Ctx : sig
  type t

  val create : n:int -> unit -> t

  (** Transposition entries currently held. *)
  val tt_entries : t -> int
end

(** [solve inst] runs the search.  The strategy table is keyed by
    interned view ids ([Wfs_sim.Intern], full-depth hashing), and a
    decision conflicting with one already output fails at decide time.

    Two sound reductions sit on the chronological exists/forall search;
    neither changes a verdict or a synthesized strategy, only the node
    count:

    - sleep sets prune scheduler branches dominated under the semantic
      independence relation ({!Wfs_sim.Independence}): a schedule
      moving a slept process is a transposition of an already-verified
      sibling schedule, so the game value is unchanged;
    - the transposition table with σ-footprint-validated no-good
      learning ({!Tt}) caches subgame verdicts at canonicalized
      positions, replays them when the current partial strategy agrees
      with the σ-entries the recorded subproof consulted, and backjumps
      past existential choice points a refutation never touched.

    [ctx] (must match the instance's [n]) shares arenas and the
    transposition store across solves, as the census does per row;
    without it each solve builds a fresh one.  The unreduced search is
    kept as a test oracle (test/solver_oracle.ml), not as a mode.

    Raises [Invalid_argument] when [max_nodes < 0]; a budget of 0 is
    legal (every non-trivial instance is then [Out_of_budget]).

    Each run feeds [solver.runs], [solver.nodes],
    [solver.cutoff.sleep], the [solver.tt.hits] /
    [solver.tt.misses] / [solver.tt.footprint_rejects] /
    [solver.tt.backjumps] family and
    [solver.view_intern.hits] / [solver.view_intern.lookups] /
    [solver.view_intern.arena_size] in the default [Wfs_obs.Metrics]
    registry. *)
val solve : ?max_nodes:int -> ?ctx:Ctx.t -> instance -> verdict

(** As {!solve}, also returning the number of search nodes explored. *)
val solve_with_stats :
  ?max_nodes:int -> ?ctx:Ctx.t -> instance -> verdict * int

val pp_action : action Fmt.t
val pp_assignment : assignment Fmt.t
val pp_verdict : verdict Fmt.t
