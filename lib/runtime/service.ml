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
   previous one returns) and then *proves* the run linearizable:

   - crash-free runs use the differential check — every operation's
     linearization position is returned by the construction itself
     ([apply_pos]), so sorting the (op, result, position) triples by
     position and replaying them through the sequential [apply] must
     reproduce every result, and the positions must be exactly
     0..total-1;

   - crash runs (halt k of n mid-operation) keep the workload within
     the exhaustive checker's capacity and verify the recorded history
     — crashed operations left pending — with
     [Wfs_history.Linearizability]; every requested halt must land and
     every surviving client must finish its workload. *)

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
  obj_window : int;
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
    obj_window = U.window t;
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
    differential_ok : bool option;  (* crash-free runs *)
    linearizable : bool option;  (* crash runs *)
  }

  let quantile sorted q =
    let len = Array.length sorted in
    if len = 0 then 0
    else sorted.(min (len - 1) (int_of_float (q *. float_of_int len)))

  (* How often each client samples [retained] (a window-bounded walk)
     into its local high-water mark. *)
  let retained_sample_period = 128

  let run_crash_free ~seed ~window ?canary ~clients ~ops_per_client ~spec () =
    let h = make_handle ~window ?canary ~n:clients spec in
    let next_op = Array.init clients (fun pid -> op_stream ~seed ~pid spec.Object_spec.menu) in
    let client pid =
      let ops = Array.make ops_per_client (Op.nullary "nop") in
      let results = Array.make ops_per_client Value.unit in
      let poss = Array.make ops_per_client (-1) in
      let lats = Array.make ops_per_client 0 in
      let max_retained = ref 0 in
      for i = 0 to ops_per_client - 1 do
        let op = next_op.(pid) () in
        let t0 = Wfs_obs.Clock.mono_ns () in
        let res, pos = h.apply_pos ~pid op in
        let t1 = Wfs_obs.Clock.mono_ns () in
        ops.(i) <- op;
        results.(i) <- res;
        poss.(i) <- pos;
        lats.(i) <- t1 - t0;
        if Wfs_obs.Metrics.hot () then begin
          Wfs_obs.Metrics.Counter.incr M.ops;
          Wfs_obs.Metrics.Histogram.observe M.latency_ns (t1 - t0)
        end;
        if i mod retained_sample_period = 0 then begin
          let r = h.retained () in
          if r > !max_retained then max_retained := r
        end
      done;
      (ops, results, poss, lats, !max_retained)
    in
    let t0 = Wfs_obs.Clock.mono_ns () in
    let per_client = Primitives.run_domains clients client in
    let duration_ns = Wfs_obs.Clock.mono_ns () - t0 in
    let total = clients * ops_per_client in
    (* differential check: replay in linearization order *)
    let seq = Array.make total None in
    let positions_ok = ref true in
    List.iter
      (fun (ops, results, poss, _, _) ->
        Array.iteri
          (fun i op ->
            let p = poss.(i) in
            if p < 0 || p >= total || seq.(p) <> None then
              positions_ok := false
            else seq.(p) <- Some (op, results.(i)))
          ops)
      per_client;
    let differential_ok =
      !positions_ok
      && begin
           let state = ref spec.Object_spec.init and ok = ref true in
           Array.iter
             (function
               | None -> ok := false
               | Some (op, recorded) ->
                   let state', expected = Object_spec.apply spec !state op in
                   state := state';
                   if not (Value.equal recorded expected) then ok := false)
             seq;
           !ok
         end
    in
    let lats =
      Array.concat (List.map (fun (_, _, _, l, _) -> l) per_client)
    in
    Array.sort compare lats;
    let max_retained =
      List.fold_left (fun acc (_, _, _, _, r) -> max acc r) 0 per_client
    in
    {
      spec_name = spec.Object_spec.name;
      clients;
      ops_per_client;
      total_ops = total;
      window;
      duration_ns;
      throughput =
        (if duration_ns = 0 then 0.
         else float_of_int total /. (float_of_int duration_ns *. 1e-9));
      lat_p50_ns = quantile lats 0.50;
      lat_p95_ns = quantile lats 0.95;
      lat_p99_ns = quantile lats 0.99;
      lat_max_ns = (if Array.length lats = 0 then 0 else lats.(Array.length lats - 1));
      log_length = h.length ();
      max_retained;
      final_watermark = h.watermark ();
      halts = 0;
      halted = [];
      pending_ops = 0;
      survivors_completed = true;
      differential_ok = Some differential_ok;
      linearizable = None;
    }

  (* Crash mode: halt [halts] of the clients mid-operation (after the
     effect boundary — the hard case: a pending operation that DID
     happen) and verify the recorded history exhaustively.  Client [k]
     halts inside its (k+1)-th operation, so every halt lands only if
     each client runs at least [halts] operations.  The workload must
     fit the checker ([Linearizability.max_ops]). *)
  let run_with_halts ~seed ~window ?canary ~clients ~ops_per_client ~spec ~halts () =
    if halts >= clients then invalid_arg "Load.run: halts must be < clients";
    if ops_per_client < halts then
      invalid_arg
        "Load.run: ops_per_client must be >= halts (client k halts inside \
         its (k+1)-th operation)";
    if clients * ops_per_client > Wfs_history.Linearizability.max_ops then
      invalid_arg
        (Fmt.str
           "Load.run: crash-mode workload %d exceeds checker capacity %d"
           (clients * ops_per_client)
           Wfs_history.Linearizability.max_ops);
    let h = make_handle ~window ?canary ~n:clients spec in
    let obj = spec.Object_spec.name in
    let next_op = Array.init clients (fun pid -> op_stream ~seed ~pid spec.Object_spec.menu) in
    let inj =
      Fault.create ~n:clients
        (List.init halts (fun k ->
             Fault.Halt { pid = k; boundary = (2 * k) + 1 }))
    in
    let recorder =
      Recorder.create ~capacity:(4 * clients * ops_per_client)
    in
    let client pid =
      let completed = ref 0 and max_retained = ref 0 in
      (try
         for _ = 1 to ops_per_client do
           let op = next_op.(pid) () in
           ignore
             (Recorder.around recorder ~pid ~obj ~op ~encode_res:Fun.id
                (fun () ->
                  Fault.protect inj ~pid (fun () -> h.apply ~pid op)));
           incr completed;
           let r = h.retained () in
           if r > !max_retained then max_retained := r
         done
       with Fault.Halted _ -> ());
      (!completed, !max_retained)
    in
    let t0 = Wfs_obs.Clock.mono_ns () in
    let per_client = Primitives.run_domains clients client in
    let duration_ns = Wfs_obs.Clock.mono_ns () - t0 in
    let halted = Fault.halted inj in
    let history = Recorder.history recorder in
    let linearizable =
      Wfs_history.History.well_formed history
      && Wfs_history.Linearizability.is_linearizable [ (obj, spec) ] history
    in
    let total_ops =
      List.fold_left (fun acc (c, _) -> acc + c) 0 per_client
    in
    let pending_ops =
      List.length
        (List.filter Wfs_history.History.is_pending
           (Wfs_history.History.operations history))
    in
    let survivors_completed =
      List.for_all2
        (fun pid (c, _) -> List.mem pid halted || c = ops_per_client)
        (List.init clients Fun.id) per_client
    in
    {
      spec_name = obj;
      clients;
      ops_per_client;
      total_ops;
      window;
      duration_ns;
      throughput =
        (if duration_ns = 0 then 0.
         else float_of_int total_ops /. (float_of_int duration_ns *. 1e-9));
      lat_p50_ns = 0;
      lat_p95_ns = 0;
      lat_p99_ns = 0;
      lat_max_ns = 0;
      log_length = h.length ();
      max_retained = List.fold_left (fun acc (_, r) -> max acc r) 0 per_client;
      final_watermark = h.watermark ();
      halts;
      halted;
      pending_ops;
      survivors_completed;
      differential_ok = None;
      linearizable = Some linearizable;
    }

  let run ?(seed = 1) ?(window = 32) ?(halts = 0) ?spec ?canary ~clients
      ~ops_per_client () =
    if clients <= 0 then invalid_arg "Load.run: clients";
    if ops_per_client < 0 then invalid_arg "Load.run: ops_per_client";
    if halts < 0 then invalid_arg "Load.run: halts must be >= 0";
    (* default to the counter: its state is O(1), so million-op runs
       measure the construction rather than the spec's list churn (the
       queue's Value-list state makes enq-biased random streams
       quadratic) *)
    let spec = match spec with Some s -> s | None -> Collections.counter () in
    if halts = 0 then
      run_crash_free ~seed ~window ?canary ~clients ~ops_per_client ~spec ()
    else
      run_with_halts ~seed ~window ?canary ~clients ~ops_per_client ~spec
        ~halts ()

  (* The checks a run must pass: results replay sequentially (or the
     recorded crash history linearizes, every requested halt landed and
     every surviving client finished its workload), truncation keeps
     the retained window bounded (the transient factor-2 covers an
     in-flight snapshot fill; +1 for the snapshot node itself), and —
     unless nothing ran — the watermark advanced off the origin. *)
  let passed r =
    Option.value ~default:true r.differential_ok
    && Option.value ~default:true r.linearizable
    && r.halted = List.init r.halts Fun.id
    && r.survivors_completed
    && r.max_retained <= (2 * r.window) + 1
    && (r.total_ops = 0 || r.final_watermark > 0)

  let pp_latency ppf r =
    (* crash runs time no operations *)
    if r.halts > 0 then Fmt.string ppf "n/a"
    else
      Fmt.pf ppf "p50=%s p95=%s p99=%s max=%s"
        (Wfs_obs.Units.ns r.lat_p50_ns)
        (Wfs_obs.Units.ns r.lat_p95_ns)
        (Wfs_obs.Units.ns r.lat_p99_ns)
        (Wfs_obs.Units.ns r.lat_max_ns)

  let pp_report ppf r =
    Fmt.pf ppf
      "@[<v>object=%s clients=%d ops/client=%d total=%d window=%d@ \
       duration=%.3fs throughput=%s ops/s@ \
       latency %a@ \
       log length=%d retained<=%d watermark=%d@ \
       halts=%d halted=[%a] pending=%d survivors-completed=%b@ \
       differential=%s linearizable=%s@]"
      r.spec_name r.clients r.ops_per_client r.total_ops r.window
      (float_of_int r.duration_ns *. 1e-9)
      (Wfs_obs.Units.si r.throughput)
      pp_latency r
      r.log_length r.max_retained r.final_watermark r.halts
      Fmt.(list ~sep:(any "; ") int)
      r.halted r.pending_ops r.survivors_completed
      (match r.differential_ok with
      | None -> "n/a"
      | Some true -> "ok"
      | Some false -> "FAILED")
      (match r.linearizable with
      | None -> "n/a"
      | Some true -> "ok"
      | Some false -> "FAILED")
end
