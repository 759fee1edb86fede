(* Domain pool with one shared job cursor per batch.

   Batches are published through an epoch counter: the leader installs
   [current <- Some (epoch, batch)] and broadcasts; workers that have
   already drained epoch [e] sleep until they observe an epoch [<> e]
   (or shutdown).  Every member, the leader included, then claims job
   indices with one [fetch_and_add] on the batch's [next] cursor until
   it runs past the end.  Handing out indices needs no agreement between
   members — each index goes to exactly one claimant — so a counter is
   all the coordination dispatch needs, and jobs start in index order.
   Completion is an atomic countdown — whichever member runs the last
   job clears [current] and wakes the leader.  Workers that wake late
   for a batch simply find the cursor exhausted and go back to sleep;
   correctness never depends on every member participating.

   Determinism: results land in a slot array indexed by job index, and
   exceptions are re-raised lowest-index-first, so the observable
   outcome of [parallel_map] does not depend on the schedule. *)

module M = struct
  open Wfs_obs.Metrics

  let batches = Counter.make "pool.batches"
  let jobs = Counter.make "pool.jobs"

  (* High-water mark of pool sizes created (incl. the caller). *)
  let domains = Gauge.make "pool.domains"
end

(* Per-member ("shard") series, labelled by member index, so a live
   scrape can attribute load imbalance to a specific domain. *)
type shard_metrics = {
  sm_jobs : Wfs_obs.Metrics.Counter.t;
  sm_busy_ns : Wfs_obs.Metrics.Gauge.t;
  sm_idle_ns : Wfs_obs.Metrics.Gauge.t;
  sm_job_ns : Wfs_obs.Metrics.Histogram.t;
}

let shard_label me = [ ("shard", string_of_int me) ]

let make_shard_metrics me =
  let open Wfs_obs.Metrics in
  let name base = labeled base (shard_label me) in
  {
    sm_jobs = Counter.make (name "pool.shard.jobs");
    sm_busy_ns = Gauge.make (name "pool.shard.busy_ns");
    sm_idle_ns = Gauge.make (name "pool.shard.idle_ns");
    sm_job_ns = Histogram.make (name "pool.shard.job_ns");
  }

(* Which pool member the current domain is: 0 for the leader (and for
   any domain outside a pool), the worker index otherwise.  Work done
   inside a job — solver nodes, explored states — attributes itself to
   the right shard through this. *)
let member_key = Domain.DLS.new_key (fun () -> 0)
let self () = Domain.DLS.get member_key

let max_members = 128

(* "States claimed per shard": cumulative count of states/nodes the jobs
   running on each member have processed, fed by [note_states] from the
   engines' batched flush points.  Cached globally because callers
   (solver, explorer) have no pool handle; the unsynchronized
   option-array read/write is a benign race — [Gauge.make] is
   idempotent, so a stale [None] just re-resolves the same gauge. *)
let shard_states_cache : Wfs_obs.Metrics.Gauge.t option array =
  Array.make max_members None

let shard_states_gauge me =
  let me = if me < 0 || me >= max_members then 0 else me in
  match shard_states_cache.(me) with
  | Some g -> g
  | None ->
      let g =
        Wfs_obs.Metrics.Gauge.make
          (Wfs_obs.Metrics.labeled "pool.shard.states" (shard_label me))
      in
      shard_states_cache.(me) <- Some g;
      g

let note_states n =
  if n > 0 then Wfs_obs.Metrics.Gauge.add (shard_states_gauge (self ())) n

type batch = {
  run : int -> unit; (* run job [i]; must not raise *)
  jobs : int;
  next : int Atomic.t; (* the next unclaimed job index *)
  remaining : int Atomic.t;
}

type t = {
  pool_size : int;
  lock : Mutex.t;
  work_cv : Condition.t; (* leader -> workers: new batch / shutdown *)
  done_cv : Condition.t; (* last finisher -> leader *)
  mutable current : (int * batch) option;
  mutable epoch : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  smetrics : shard_metrics array; (* labelled series, one per member *)
}

let size t = t.pool_size

(* True while the current domain is executing a pool job.  A nested
   [parallel_map] from inside a job must not block on the pool's own
   members, so it runs inline instead. *)
let in_job_key = Domain.DLS.new_key (fun () -> false)

let run_job t b me i =
  let sm = t.smetrics.(me) in
  let prof = Wfs_obs.Profile.enabled () in
  if prof then
    Wfs_obs.Profile.begin_ ~cat:"pool"
      ~args:(fun () -> [ ("job", Wfs_obs.Json.int i) ])
      "pool.job";
  let t0 = Wfs_obs.Clock.now_ns () in
  Domain.DLS.set in_job_key true;
  (try b.run i with _ -> ());
  Domain.DLS.set in_job_key false;
  let dt = Wfs_obs.Clock.now_ns () - t0 in
  (* b.run swallows exceptions, so the span always closes *)
  if prof then Wfs_obs.Profile.end_ ();
  Wfs_obs.Metrics.Counter.incr M.jobs;
  Wfs_obs.Metrics.Counter.incr sm.sm_jobs;
  Wfs_obs.Metrics.Gauge.add sm.sm_busy_ns dt;
  Wfs_obs.Metrics.Histogram.observe sm.sm_job_ns dt;
  if Atomic.fetch_and_add b.remaining (-1) = 1 then begin
    Mutex.lock t.lock;
    t.current <- None;
    Condition.broadcast t.done_cv;
    Mutex.unlock t.lock
  end

(* Claim and run jobs until the cursor passes the end.  Jobs may still
   be in flight on other members when we return; the countdown in
   [run_job] is what signals true completion. *)
let drain t b me =
  let rec loop () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.jobs then begin
      run_job t b me i;
      loop ()
    end
  in
  loop ()

let worker_main t me =
  Domain.DLS.set member_key me;
  (* one event per worker at startup: the trace gets a tid row for
     every member even if this worker never wins a job *)
  if Wfs_obs.Profile.enabled () then
    Wfs_obs.Profile.instant ~cat:"pool" "pool.member";
  let rec wait_for_batch last_epoch =
    let w0 = Wfs_obs.Clock.now_ns () in
    Mutex.lock t.lock;
    let rec block () =
      if t.stop then begin
        Mutex.unlock t.lock;
        None
      end
      else
        match t.current with
        | Some (e, b) when e <> last_epoch ->
            Mutex.unlock t.lock;
            Some (e, b)
        | _ ->
            Condition.wait t.work_cv t.lock;
            block ()
    in
    match block () with
    | None -> ()
    | Some (e, b) ->
        Wfs_obs.Metrics.Gauge.add t.smetrics.(me).sm_idle_ns
          (Wfs_obs.Clock.now_ns () - w0);
        if Wfs_obs.Profile.enabled () then
          Wfs_obs.Profile.complete ~cat:"pool" "pool.idle" ~t0_ns:w0;
        drain t b me;
        wait_for_batch e
  in
  wait_for_batch 0

let create ?domains () =
  let requested =
    match domains with None -> Domain.recommended_domain_count () | Some d -> d
  in
  let n = max 1 (min requested 128) in
  let t =
    {
      pool_size = n;
      lock = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      current = None;
      epoch = 0;
      stop = false;
      workers = [];
      smetrics = Array.init n make_shard_metrics;
    }
  in
  Wfs_obs.Metrics.Gauge.set_max M.domains n;
  (* register the per-shard states series eagerly so a scrape shows one
     series per member even before any engine claims states *)
  for me = 0 to n - 1 do
    ignore (shard_states_gauge me)
  done;
  t.workers <- List.init (n - 1) (fun i -> Domain.spawn (fun () -> worker_main t (i + 1)));
  t

let shutdown t =
  Mutex.lock t.lock;
  let already = t.stop in
  t.stop <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.lock;
  if not already then begin
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let parallel_map t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else if t.pool_size = 1 || Domain.DLS.get in_job_key then Array.map f arr
  else begin
    if t.stop then invalid_arg "Wfs_sim.Pool.parallel_map: pool is shut down";
    let slots = Array.make n None in
    let run i = slots.(i) <- Some (try Ok (f arr.(i)) with e -> Error e) in
    let b =
      { run; jobs = n; next = Atomic.make 0; remaining = Atomic.make n }
    in
    Wfs_obs.Metrics.Counter.incr M.batches;
    let prof = Wfs_obs.Profile.enabled () in
    if prof then
      Wfs_obs.Profile.begin_ ~cat:"pool"
        ~args:(fun () ->
          [
            ("jobs", Wfs_obs.Json.int n);
            ("members", Wfs_obs.Json.int t.pool_size);
          ])
        "pool.batch";
    Mutex.lock t.lock;
    t.epoch <- t.epoch + 1;
    let epoch = t.epoch in
    t.current <- Some (epoch, b);
    Condition.broadcast t.work_cv;
    Mutex.unlock t.lock;
    (* The leader claims jobs from the cursor like any member. *)
    drain t b 0;
    let w0 = Wfs_obs.Clock.now_ns () in
    Mutex.lock t.lock;
    while Atomic.get b.remaining > 0 do
      Condition.wait t.done_cv t.lock
    done;
    (match t.current with Some (e, _) when e = epoch -> t.current <- None | _ -> ());
    Mutex.unlock t.lock;
    Wfs_obs.Metrics.Gauge.add t.smetrics.(0).sm_idle_ns
      (Wfs_obs.Clock.now_ns () - w0);
    if prof then begin
      Wfs_obs.Profile.complete ~cat:"pool" "pool.wait" ~t0_ns:w0;
      Wfs_obs.Profile.end_ ()
    end;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false (* every job decremented [remaining] *))
      slots
  end

let map_heaviest_first pool ~weight f jobs =
  match pool with
  | Some t when t.pool_size > 1 ->
      let w = Array.map weight jobs in
      let order = Array.init (Array.length jobs) Fun.id in
      (* stable: equal weights keep plan order *)
      Array.stable_sort (fun i j -> Float.compare w.(j) w.(i)) order;
      let permuted = parallel_map t (fun i -> f jobs.(i)) order in
      let slot = Array.make (Array.length jobs) 0 in
      Array.iteri (fun k i -> slot.(i) <- k) order;
      Array.map (fun k -> permuted.(k)) slot
  | _ -> Array.map f jobs
