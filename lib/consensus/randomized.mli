(** Randomized wait-free 2-process binary consensus from read/write
    registers — the §5 open problem (Abrahamson's direction), escaping
    Theorem 2's deterministic impossibility.

    Agreement and validity hold on every execution; termination holds
    with probability 1.  In the simulator, coins are adversarial: each
    process carries a fixed finite coin sequence and safety is checked
    exhaustively over every schedule of every coin assignment. *)

open Wfs_spec
open Wfs_sim

(** Decision sentinel used when a simulated process exhausts its finite
    coin sequence while still in conflict. *)
val aborted : Value.t

val proc : pid:int -> input:bool -> coins:bool list -> Process.t
val config : inputs:bool array -> coins:bool list array -> Explorer.config

type verification = {
  ok : bool;
  configurations : int;
  states : int;
  aborts_possible : bool;
  failure : string option;
}

(** Exhaustive safety over all schedules × all coin sequences of length
    [flips] (default 3) × all four input combinations; [ok] also
    requires every configuration's exploration to be wait-free.  Raises
    [Invalid_argument] when [flips < 0]. *)
val verify_all_coins : ?flips:int -> unit -> verification

(** One seeded run with pseudo-random coins.  Raises
    [Invalid_argument] when [flips < 0]. *)
val run : ?flips:int -> inputs:bool array -> seed:int -> unit -> Runner.outcome
