(* The universal object service: `lib/spec` objects served by the
   batched + truncating wait-free construction, plus the closed-loop load
   harness — the runtime's one service and crash harness.

   This is the "long-lived service" shape of §4's universality theorem:
   a sequential object specification ([Object_spec.t] — queue, counter,
   map out of the box) lifted to a linearizable wait-free shared object
   over [Universal_rt.Wait_free].  Because the specs speak
   [Value.t]/[Op.t], one service layer serves every object type, and a
   recorded execution can be fed straight to the linearizability
   checker.

   The load harness drives a service object from many client domains in
   a closed loop (each client issues its next operation as soon as the
   previous one returns) and then *proves* the run linearizable.  Every
   operation's linearization position is returned by the construction
   itself ([apply_pos]), so the run carries its own witness: the
   recorded (op, result, position, invoke/response time) history is
   checked with [Wfs_history.Linearizability.check_witness] — positions
   exactly 0..length-1, real-time order respected, and a replay through
   the sequential [apply] reproducing every result.  Crash runs (halt k
   of n mid-operation) leave each halted client's in-flight operation
   pending, to fill the log position its effect took; every requested
   halt must land and every surviving client must finish its
   workload. *)

open Wfs_spec

module M = struct
  open Wfs_obs.Metrics

  let ops = Counter.make "service.ops"
  let latency_ns = Histogram.make "service.latency_ns"
end

type handle = {
  spec : Object_spec.t;
  apply : pid:int -> Op.t -> Value.t;
  apply_pos : pid:int -> Op.t -> Value.t * int;
  length : unit -> int;
  retained : unit -> int;
  watermark : unit -> int;
  tickets : unit -> int;
}

let seq_of_spec (spec : Object_spec.t) =
  (module struct
    type state = Value.t
    type op = Op.t
    type res = Value.t

    let init = spec.Object_spec.init
    let apply s o = Object_spec.apply spec s o
  end : Universal_rt.SEQ
    with type state = Value.t
     and type op = Op.t
     and type res = Value.t)

let make_handle ?window ?canary ~n spec =
  let module S = (val seq_of_spec spec) in
  let module U = Universal_rt.Wait_free (S) in
  let t = U.create ~label:spec.Object_spec.name ?canary ?window ~n () in
  {
    spec;
    apply = (fun ~pid op -> U.apply t ~pid op);
    apply_pos = (fun ~pid op -> U.apply_pos t ~pid op);
    length = (fun () -> U.length t);
    retained = (fun () -> U.retained t);
    watermark = (fun () -> U.watermark t);
    tickets = (fun () -> U.tickets_issued t);
  }

let default_specs () =
  [ Zoo.queue (); Collections.counter (); Collections.kv_map () ]

(* --- seeded operation scripts ------------------------------------- *)

(* Deterministic per-client operation streams: client [pid] of a run
   seeded with [seed] always issues the same script, so load runs (and
   their differential verdicts) reproduce exactly. *)
let op_stream ~seed ~pid menu =
  let menu = Array.of_list menu in
  if Array.length menu = 0 then invalid_arg "Service: empty operation menu";
  let rng = Random.State.make [| 0x5eed; seed; pid |] in
  fun () -> menu.(Random.State.int rng (Array.length menu))

(* --- closed-loop load harness ------------------------------------- *)

module Load = struct
  type report = {
    spec_name : string;
    clients : int;
    ops_per_client : int;
    total_ops : int;  (* operations that completed *)
    window : int;
    duration_ns : int;
    throughput : float;  (* completed operations per wall second *)
    lat_p50_ns : int;
    lat_p95_ns : int;
    lat_p99_ns : int;
    lat_max_ns : int;
    log_length : int;
    max_retained : int;  (* high-water mark of the sampled window *)
    final_watermark : int;
    halts : int;  (* requested halt count *)
    halted : int list;
    pending_ops : int;  (* operations the halted clients left pending *)
    survivors_completed : bool;
    differential_ok : bool;  (* the run replays in its witness order *)
  }

  let quantile sorted q =
    let len = Array.length sorted in
    if len = 0 then 0
    else sorted.(min (len - 1) (int_of_float (q *. float_of_int len)))

  (* How often each client samples [retained] (a window-bounded walk)
     into its local high-water mark. *)
  let retained_sample_period = 128

  (* OCaml 5.1 runs at most 128 domains at once; the main domain, the
     metrics sampler and its HTTP endpoint take three. *)
  let max_clients = 125

  (* One client's run: operation [i] was invoked at [invoked.(i)] and,
     for [i < completed], returned [results.(i)] at [responded.(i)] from
     log position [positions.(i)].  A halted client's operation
     [completed] is its pending one. *)
  type client_log = {
    ops : Op.t array;
    results : Value.t array;
    positions : int array;
    invoked : int array;
    responded : int array;
    completed : int;
    retained_max : int;
  }

  let run ?(seed = 1) ?(window = 32) ?(halts = 0) ?spec ?canary ~clients
      ~ops_per_client () =
    if clients <= 0 then invalid_arg "Load.run: clients";
    if clients > max_clients then
      invalid_arg
        (Fmt.str
           "Load.run: clients must be <= %d (OCaml runs at most 128 domains, \
            three kept for the main program and telemetry)"
           max_clients);
    if ops_per_client < 0 then invalid_arg "Load.run: ops_per_client";
    if halts < 0 then invalid_arg "Load.run: halts must be >= 0";
    if halts >= clients then invalid_arg "Load.run: halts must be < clients";
    if ops_per_client < halts then
      invalid_arg
        "Load.run: ops_per_client must be >= halts (client k halts inside \
         its (k+1)-th operation)";
    (* default to the counter: its state is O(1), so million-op runs
       measure the construction rather than the spec's list churn (the
       queue's Value-list state makes enq-biased random streams
       quadratic) *)
    let spec = match spec with Some s -> s | None -> Collections.counter () in
    let h = make_handle ~window ?canary ~n:clients spec in
    let next_op = Array.init clients (fun pid -> op_stream ~seed ~pid spec.Object_spec.menu) in
    (* client [k < halts] halts inside its (k+1)-th operation, after the
       effect boundary — the hard case: a pending operation that DID
       happen *)
    let inj =
      if halts = 0 then None
      else
        Some
          (Fault.create ~n:clients
             (List.init halts (fun k ->
                  Fault.Halt { pid = k; boundary = (2 * k) + 1 })))
    in
    let apply_pos =
      match inj with
      | None -> h.apply_pos
      | Some inj ->
          fun ~pid op -> Fault.protect inj ~pid (fun () -> h.apply_pos ~pid op)
    in
    let client pid =
      let ops = Array.make ops_per_client (Op.nullary "nop") in
      let results = Array.make ops_per_client Value.unit in
      let positions = Array.make ops_per_client (-1) in
      let invoked = Array.make ops_per_client 0 in
      let responded = Array.make ops_per_client 0 in
      let completed = ref 0 and retained_max = ref 0 in
      (try
         for i = 0 to ops_per_client - 1 do
           let op = next_op.(pid) () in
           ops.(i) <- op;
           let t0 = Wfs_obs.Clock.mono_ns () in
           invoked.(i) <- t0;
           let res, pos = apply_pos ~pid op in
           let t1 = Wfs_obs.Clock.mono_ns () in
           results.(i) <- res;
           positions.(i) <- pos;
           responded.(i) <- t1;
           completed := i + 1;
           (* batched like the explorer's live [explorer.states] flush *)
           if !completed land 1023 = 0 then
             Wfs_obs.Metrics.Counter.add M.ops 1024;
           if Wfs_obs.Metrics.hot () then
             Wfs_obs.Metrics.Histogram.observe M.latency_ns (t1 - t0);
           if i mod retained_sample_period = 0 then begin
             let r = h.retained () in
             if r > !retained_max then retained_max := r
           end
         done
       with Fault.Halted _ -> ());
      Wfs_obs.Metrics.Counter.add M.ops (!completed land 1023);
      { ops; results; positions; invoked; responded; completed = !completed;
        retained_max = !retained_max }
    in
    let t0 = Wfs_obs.Clock.mono_ns () in
    let logs = Primitives.run_domains clients client in
    let duration_ns = Wfs_obs.Clock.mono_ns () - t0 in
    let halted = match inj with None -> [] | Some inj -> Fault.halted inj in
    (* the witness: each completed operation at the position the
       construction reported, a halted client's in-flight one pending *)
    let history =
      Array.concat
        (List.mapi
           (fun pid l ->
             Array.init (min ops_per_client (l.completed + 1)) (fun i ->
                 let completed = i < l.completed in
                 ( { Wfs_history.History.pid; obj = spec.Object_spec.name;
                     op = l.ops.(i); invoke_at = l.invoked.(i);
                     res = (if completed then Some l.results.(i) else None);
                     respond_at = (if completed then l.responded.(i) else max_int) },
                   if completed then Some l.positions.(i) else None )))
           logs)
    in
    let lats =
      Array.of_seq
        (Seq.filter_map
           (fun ((o : Wfs_history.History.operation), pos) ->
             Option.map (fun _ -> o.respond_at - o.invoke_at) pos)
           (Array.to_seq history))
    in
    Array.sort compare lats;
    let total_ops = Array.length lats and log_length = h.length () in
    {
      spec_name = spec.Object_spec.name;
      clients;
      ops_per_client;
      total_ops;
      window;
      duration_ns;
      throughput =
        (if duration_ns = 0 then 0.
         else float_of_int total_ops /. (float_of_int duration_ns *. 1e-9));
      lat_p50_ns = quantile lats 0.50;
      lat_p95_ns = quantile lats 0.95;
      lat_p99_ns = quantile lats 0.99;
      lat_max_ns = (if Array.length lats = 0 then 0 else lats.(Array.length lats - 1));
      log_length;
      max_retained = List.fold_left (fun acc l -> max acc l.retained_max) 0 logs;
      final_watermark = h.watermark ();
      halts;
      halted;
      pending_ops = Array.length history - total_ops;
      survivors_completed =
        List.for_all2
          (fun pid l -> List.mem pid halted || l.completed = ops_per_client)
          (List.init clients Fun.id) logs;
      differential_ok =
        Wfs_history.Linearizability.check_witness spec ~length:log_length
          history;
    }

  (* The checks a run must pass: the run replays in the construction's
     witness order, every requested halt landed and every surviving
     client finished its workload, truncation keeps the retained window
     bounded (the transient factor-2 covers an in-flight snapshot fill;
     +1 for the snapshot node itself), and — unless nothing ran — the
     watermark advanced off the origin. *)
  let passed r =
    r.differential_ok
    && r.halted = List.init r.halts Fun.id
    && r.survivors_completed
    && r.max_retained <= (2 * r.window) + 1
    && (r.total_ops = 0 || r.final_watermark > 0)

  let pp_report ppf r =
    Fmt.pf ppf
      "@[<v>object=%s clients=%d ops/client=%d total=%d window=%d@ \
       duration=%.3fs throughput=%s ops/s@ \
       latency p50=%s p95=%s p99=%s max=%s@ \
       log length=%d retained<=%d watermark=%d@ \
       halts=%d halted=[%a] pending=%d survivors-completed=%b@ \
       differential=%s@]"
      r.spec_name r.clients r.ops_per_client r.total_ops r.window
      (float_of_int r.duration_ns *. 1e-9)
      (Wfs_obs.Units.si r.throughput)
      (Wfs_obs.Units.ns r.lat_p50_ns)
      (Wfs_obs.Units.ns r.lat_p95_ns)
      (Wfs_obs.Units.ns r.lat_p99_ns)
      (Wfs_obs.Units.ns r.lat_max_ns)
      r.log_length r.max_retained r.final_watermark r.halts
      Fmt.(list ~sep:(any "; ") int)
      r.halted r.pending_ops r.survivors_completed
      (if r.differential_ok then "ok" else "FAILED")
end
