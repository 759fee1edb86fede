(** Regenerating Figure 1-1 with machine-checked evidence: verified
    protocols for the positive levels, interference classifications and
    solver impossibility verdicts for the negative ones. *)

type solver_outcome = [ `Solvable | `Unsolvable | `Budget ]

type evidence =
  | Protocol_verified of { n : int; states : int; protocol : string }
  | Protocol_failed of { n : int; protocol : string }
  | Classified of Interference.verdict
  | Solver_verdict of { n : int; depth : int; outcome : solver_outcome }

type row = {
  object_family : string;
  paper_level : string;
  evidence : evidence list;
}

type t = row list

(** Verify one protocol over all schedules and package the verdict as
    table evidence; [pool] forwards to
    {!Wfs_consensus.Protocol.verify} (intra-exploration parallel run). *)
val verify_protocol :
  ?max_states:int -> ?pool:Wfs_sim.Pool.t -> Wfs_consensus.Protocol.t ->
  evidence

(** Build the table; [full] adds the expensive solver instances
    (Theorem 11's queue impossibility at n = 3, deeper register
    bounds).  [pool] shards the registry-wide evidence plan — one job
    per protocol verification, classification or solver run, issued
    heaviest-first — across a domain pool, reassembling rows in plan
    order: the table is byte-identical to a sequential [generate]. *)
val generate : ?pool:Wfs_sim.Pool.t -> ?full:bool -> unit -> t

(** Every piece of evidence agrees with the paper's claimed level. *)
val consistent : t -> bool

val row_consistent : row -> bool
val pp_evidence : evidence Fmt.t
val pp : t Fmt.t
