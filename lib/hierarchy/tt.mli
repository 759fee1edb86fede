(** Footprint-validated transposition entries for the bounded solver.

    The solver caches subgame verdicts at canonicalized positions, but
    the game value of a position is only defined relative to the shared
    mutable strategy table σ.  Each cached entry therefore carries the
    σ-FOOTPRINT its subproof actually consulted, and replays only when
    the current σ agrees with it — dependency-directed memoization, the
    no-good/clause-learning idea of QBF solvers lifted to the
    exists-strategy/forall-schedule game.  See [tt.ml] for the full
    soundness argument (refutation vs. verified entries, the CPS
    success-replay condition, sleep-mask subsumption, and backjumping
    via conflicts).

    σ is seen through ints only: a σ-key is the solver's dense
    [view_id * n + pid], a σ-value its per-context action code, and
    {!unassigned} stands for "no action".  Keys, values and positions
    are compared as ints.  The module is purely sequential — one store
    per shared {!Solver.Ctx} (or per solve), accessed by one domain. *)

(** The σ-value of an unassigned key: [-1], never an action code. *)
val unassigned : int

(** Footprint accumulator for one open subproof.  Frames mirror the
    search stack: reads/writes log into the innermost open frame, and
    {!merge} folds a completed child into its parent. *)
type frame

(** A footprint: [[| k0; v0; k1; v1; … |]], each consulted σ-key
    followed by the value the subproof requires of it ({!unassigned} =
    required unassigned — success entries only). *)
type fp = int array

(** A cached verdict.  [e_mask] is the sleep mask at recording, checked
    (for subsumption) on success replays only. *)
type entry = { e_true : bool; e_mask : int; e_fp : fp }

(** The no-good carried by a [false] currently unwinding the search:
    σ-support of the refutation ([None] = unknown, never skips) plus
    the serials of the choice frames that formed the refuted
    structure. *)
type conflict = { c_fp : fp option; c_chain : int list }

type store

val fp_cap : int
val entry_cap : int

val create : unit -> store

(** Total entries currently held (across all positions). *)
val entries : store -> int

val frame : unit -> frame

(** Mark the open subproof as resting on a backjump: its [false] proves
    global failure only, so {!refutation_fp} will refuse to produce a
    subgame-refutation footprint for it (or for any ancestor it merges
    into).  Successes are unaffected. *)
val taint : frame -> unit

(** [log_read fr k seen] / [log_write fr k]: record one σ access in the
    open frame.  Cheap after overflow (single flag test). *)
val log_read : frame -> int -> int -> unit

val log_write : frame -> int -> unit

(** Fold a completed child subproof's footprint into its parent's. *)
val merge : child:frame -> parent:frame -> unit

(** Footprint of a pure refutation (external assigned reads only), or
    [None] if the frame overflowed or is tainted. *)
val refutation_fp : frame -> fp option

(** Exact footprint of a clean success: every consulted key at its
    final value, written keys re-read through [find]. *)
val success_fp : find:(int -> int) -> frame -> fp option

(** Does the current σ (read through [find]) still agree with a
    recorded footprint? *)
val fp_valid : find:(int -> int) -> fp -> bool

type outcome =
  | Replay of entry
  | Miss of int  (** entries present but footprint/mask-rejected *)

(** [pos] is a dense position id ([>= 0]). *)
val lookup : store -> find:(int -> int) -> pos:int -> mask:int -> outcome

(** Record a verdict at a position; keeps the newest {!entry_cap}
    entries per position. *)
val record : store -> pos:int -> entry -> unit
