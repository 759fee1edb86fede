(* Deterministic crash-stop fault injection for the multicore runtime.

   Wait-freedom is, by definition, tolerance of up to n-1 undetected
   halting failures (§2); the simulator quantifies over those crashes
   exhaustively ([Wfs_sim.Explorer ~crashes]), and this module injects
   the same adversary into real domains.  A *plan* places faults at
   *operation boundaries* — the instants just before and just after a
   shared-object operation executes, which are exactly the points where
   a crash-stop failure is observable: halting strictly inside an atomic
   primitive is indistinguishable from halting at one of its boundaries.

   Faults are plan-driven and deterministic: the k-th boundary crossing
   of process [pid] either stalls (a long but finite delay, the
   "slow process" the adversary uses in the paper's proofs) or halts
   permanently (the process never takes another step — [Halted] unwinds
   its domain).  Nothing here is randomized, so stress failures replay
   exactly. *)

type rule =
  | Stall of { pid : int; boundary : int; spins : int }
  | Halt of { pid : int; boundary : int }

exception Halted of int

type t = {
  counters : int Atomic.t array;  (* boundary crossings, per pid *)
  down : bool Atomic.t array;  (* permanently halted? *)
  plan : rule list array;  (* rules, indexed by pid *)
}

module M = struct
  open Wfs_obs.Metrics

  let boundaries = Counter.make "fault.boundaries"
  let stalls = Counter.make "fault.stalls"
  let halts = Counter.make "fault.halts"
end

let rule_pid = function Stall { pid; _ } | Halt { pid; _ } -> pid

let create ~n plan =
  if n <= 0 then invalid_arg "Fault.create: n";
  List.iter
    (fun r ->
      let pid = rule_pid r in
      if pid < 0 || pid >= n then
        invalid_arg (Printf.sprintf "Fault.create: rule names pid %d" pid))
    plan;
  {
    counters = Array.init n (fun _ -> Atomic.make 0);
    down = Array.init n (fun _ -> Atomic.make false);
    plan = Array.init n (fun pid -> List.filter (fun r -> rule_pid r = pid) plan);
  }

let is_halted t ~pid = Atomic.get t.down.(pid)

let halted t =
  Array.to_list t.down
  |> List.mapi (fun pid d -> (pid, Atomic.get d))
  |> List.filter_map (fun (pid, d) -> if d then Some pid else None)

let boundary t ~pid =
  (* once down, always down: a crashed process re-entering is a bug in
     the harness, not a second chance *)
  if Atomic.get t.down.(pid) then raise (Halted pid);
  let b = Atomic.fetch_and_add t.counters.(pid) 1 in
  if Wfs_obs.Metrics.hot () then Wfs_obs.Metrics.Counter.incr M.boundaries;
  List.iter
    (function
      | Stall { boundary; spins; _ } when boundary = b ->
          Wfs_obs.Metrics.Counter.incr M.stalls;
          for _ = 1 to spins do
            Domain.cpu_relax ()
          done
      | Halt { boundary; _ } when boundary = b ->
          Wfs_obs.Metrics.Counter.incr M.halts;
          Atomic.set t.down.(pid) true;
          raise (Halted pid)
      | Stall _ | Halt _ -> ())
    t.plan.(pid)

(* Two boundaries per operation: a halt at the first models a crash
   before the operation took effect, at the second a crash after the
   effect but before the response was delivered — the two faces of a
   pending operation in the crash-stop model. *)
let protect t ~pid f =
  boundary t ~pid;
  let r = f () in
  boundary t ~pid;
  r

(* --- fault-injecting wrappers over the primitives ---

   Same operations as [Primitives], with every operation bracketed by
   {!boundary} crossings of the calling process.  The underlying
   hardware operation itself stays the plain [Atomic] one. *)

type injector = t

module Register = struct
  type 'a t = { p : 'a Primitives.Register.t; inj : injector }

  let make inj v = { p = Primitives.Register.make v; inj }
  let read t ~pid = protect t.inj ~pid (fun () -> Primitives.Register.read t.p)

  let write t ~pid v =
    protect t.inj ~pid (fun () -> Primitives.Register.write t.p v)
end

module Test_and_set = struct
  type t = { p : Primitives.Test_and_set.t; inj : injector }

  let make inj = { p = Primitives.Test_and_set.make (); inj }

  let test_and_set t ~pid =
    protect t.inj ~pid (fun () -> Primitives.Test_and_set.test_and_set t.p)

  let read t ~pid =
    protect t.inj ~pid (fun () -> Primitives.Test_and_set.read t.p)
end

module Fetch_and_add = struct
  type t = { p : Primitives.Fetch_and_add.t; inj : injector }

  let make inj init = { p = Primitives.Fetch_and_add.make init; inj }

  let fetch_and_add t ~pid k =
    protect t.inj ~pid (fun () -> Primitives.Fetch_and_add.fetch_and_add t.p k)

  let read t ~pid =
    protect t.inj ~pid (fun () -> Primitives.Fetch_and_add.read t.p)
end

module Swap = struct
  type 'a t = { p : 'a Primitives.Swap.t; inj : injector }

  let make inj v = { p = Primitives.Swap.make v; inj }
  let swap t ~pid v = protect t.inj ~pid (fun () -> Primitives.Swap.swap t.p v)
  let read t ~pid = protect t.inj ~pid (fun () -> Primitives.Swap.read t.p)
end

module Cas = struct
  type 'a t = { p : 'a Primitives.Cas.t; inj : injector }

  let make inj v = { p = Primitives.Cas.make v; inj }

  let compare_and_swap t ~pid ~expected ~replacement =
    protect t.inj ~pid (fun () ->
        Primitives.Cas.compare_and_swap t.p ~expected ~replacement)

  let compare_and_set t ~pid expected replacement =
    protect t.inj ~pid (fun () ->
        Primitives.Cas.compare_and_set t.p expected replacement)

  let read t ~pid = protect t.inj ~pid (fun () -> Primitives.Cas.read t.p)
end

(* --- crash-stop stress harness ---

   [k] of [n] domains halt mid-operation against the wait-free
   (announce-and-help) universal queue; the survivors must complete
   every operation, and the recorded history — completed operations
   plus the crashed ones left pending by [Recorder.around] — must still
   linearize against the sequential FIFO spec. *)

module WQ = Universal_rt.Wait_free (Seq_objects.Queue_of_int)

type stress = {
  n : int;
  halts : int;  (* requested halt count *)
  down : int list;  (* pids actually halted, ascending *)
  survivor_ops : int;  (* operations completed by surviving domains *)
  crashed_ops : int;  (* operations left pending by halted domains *)
  survivors_completed : bool;  (* every survivor ran its full workload *)
  well_formed : bool;
  linearizable : bool;
}

let stress_queue ?(ops_per_proc = 7) ~n ~halts () =
  if halts < 0 || halts >= n then invalid_arg "Fault.stress_queue: halts";
  if ops_per_proc < 0 then
    invalid_arg "Fault.stress_queue: ops_per_proc must be >= 0";
  if n * ops_per_proc > Wfs_history.Linearizability.max_ops then
    invalid_arg "Fault.stress_queue: workload exceeds checker capacity";
  let open Wfs_spec in
  (* halt pid h inside its (h+1)-th operation, after the operation's
     effect (odd boundary): the hardest case for the checker, a pending
     operation that DID happen *)
  let inj =
    create ~n
      (List.init halts (fun h -> Halt { pid = h; boundary = (2 * h) + 1 }))
  in
  let q = WQ.create ~n () in
  let recorder = Recorder.create ~capacity:(4 * n * ops_per_proc) in
  let run pid =
    let completed = ref 0 in
    (try
       for i = 0 to ops_per_proc - 1 do
         let enq = i land 1 = 0 in
         let item = (pid * 100) + i in
         let op, seq_op, encode_res =
           if enq then
             ( Queues.enq (Value.int item),
               Seq_objects.Queue_of_int.Enq item,
               fun _ -> Value.unit )
           else
             ( Queues.deq,
               Seq_objects.Queue_of_int.Deq,
               function
               | Seq_objects.Queue_of_int.Deqd x -> Value.int x
               | _ -> Queues.empty_result )
         in
         ignore
           (Recorder.around recorder ~pid ~obj:"q" ~op ~encode_res (fun () ->
                protect inj ~pid (fun () -> WQ.apply q ~pid seq_op)));
         incr completed
       done
     with Halted _ -> ());
    !completed
  in
  let completed = Primitives.run_domains n run in
  let down = halted inj in
  let history = Recorder.history recorder in
  let ops = Wfs_history.History.operations history in
  let crashed_ops =
    List.length (List.filter Wfs_history.History.is_pending ops)
  in
  let survivors_completed =
    List.mapi (fun pid c -> (pid, c)) completed
    |> List.for_all (fun (pid, c) ->
           List.mem pid down || c = ops_per_proc)
  in
  let spec = Queues.fifo ~name:"q" ~items:[] () in
  {
    n;
    halts;
    down;
    survivor_ops =
      List.fold_left ( + ) 0
        (List.filteri (fun pid _ -> not (List.mem pid down)) completed);
    crashed_ops;
    survivors_completed;
    well_formed = Wfs_history.History.well_formed history;
    linearizable =
      Wfs_history.Linearizability.is_linearizable [ ("q", spec) ] history;
  }

let stress_passed s =
  s.survivors_completed && s.well_formed && s.linearizable
  && List.length s.down = s.halts

let pp_stress ppf s =
  Fmt.pf ppf
    "@[<v>n=%d halts=%d down=[%a]@ survivor ops=%d crashed ops=%d@ \
     survivors-completed=%b well-formed=%b linearizable=%b@]"
    s.n s.halts
    Fmt.(list ~sep:(any "; ") int)
    s.down s.survivor_ops s.crashed_ops s.survivors_completed s.well_formed
    s.linearizable
