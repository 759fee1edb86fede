(** The universal object service: {!Wfs_spec.Object_spec} objects
    (queue, counter, map by default) served by the batched + truncating
    wait-free construction, with a closed-loop load harness — the
    runtime's one service and crash harness — whose runs, with or
    without injected halts, are checked against the linearization order
    the construction itself reports
    ({!Wfs_history.Linearizability.check_witness}). *)

open Wfs_spec

(** One served object: a sequential specification lifted to a
    linearizable wait-free shared object.  All accessors are
    thread-safe. *)
type handle = {
  spec : Object_spec.t;
  apply : pid:int -> Op.t -> Value.t;
  apply_pos : pid:int -> Op.t -> Value.t * int;
      (** result plus linearization position *)
  length : unit -> int;  (** operations threaded so far *)
  retained : unit -> int;  (** log nodes reachable behind the frontier *)
  watermark : unit -> int;  (** §4.1 reclamation watermark *)
  tickets : unit -> int;
}

(** Lift one specification (processes [0..n-1]).  [canary] is forwarded
    to the construction's help canary (see
    {!Runtime.Universal_rt.Wait_free.create}); the object is labelled
    with its spec name in causal trace events. *)
val make_handle : ?window:int -> ?canary:int -> n:int -> Object_spec.t -> handle

(** The served objects: FIFO queue, counter, kv-map. *)
val default_specs : unit -> Object_spec.t list

module Load : sig
  type report = {
    spec_name : string;
    clients : int;
    ops_per_client : int;
    total_ops : int;
    window : int;
    duration_ns : int;
    throughput : float;
    lat_p50_ns : int;
    lat_p95_ns : int;
    lat_p99_ns : int;
    lat_max_ns : int;
    log_length : int;
    max_retained : int;
    final_watermark : int;
    halts : int;  (** requested halt count *)
    halted : int list;  (** clients actually halted, ascending *)
    pending_ops : int;  (** operations the halted clients left pending *)
    survivors_completed : bool;
        (** every client that did not halt ran its full workload *)
    differential_ok : bool;
        (** the recorded history passes
            {!Wfs_history.Linearizability.check_witness} *)
  }

  (** [run ~clients ~ops_per_client ()] drives one object (default: the
      counter) from [clients] closed-loop client domains, recording each
      operation's result, linearization position and invoke/response
      times, and checks the run against that witness order.  With
      [halts = k > 0] clients [0..k-1] halt mid-operation — client [i]
      inside its (i+1)-th operation, after its effect — and their
      in-flight operations are checked as pending.  Raises
      [Invalid_argument] unless [0 < clients <= 125] (OCaml's domain
      limit, less the main program's and telemetry's domains),
      [ops_per_client >= 0], [0 <= halts < clients] and
      [ops_per_client >= halts] (so every halt lands); nothing is
      spawned before these checks.
      Deterministic for a fixed [seed].  [canary] routes every
      [canary]-th announce ticket through the helped slow path while
      causal tracing is enabled (for recording help edges on machines
      that time-slice domains); it does not change results. *)
  val run :
    ?seed:int ->
    ?window:int ->
    ?halts:int ->
    ?spec:Object_spec.t ->
    ?canary:int ->
    clients:int ->
    ops_per_client:int ->
    unit ->
    report

  (** The witness check holds, every requested
      halt landed ([halted = [0..halts-1]]), every survivor completed,
      the retained window stayed within its bound, and the watermark
      advanced. *)
  val passed : report -> bool

  val pp_report : report Fmt.t
end
