(* Deterministic crash-stop fault injection for the multicore runtime.

   Wait-freedom is, by definition, tolerance of up to n-1 undetected
   halting failures (§2); the simulator quantifies over those crashes
   exhaustively ([Wfs_sim.Explorer ~crashes]), and this module injects
   the same adversary into real domains.  A *plan* places faults at
   *operation boundaries* — the instants just before and just after a
   shared-object operation executes, which are exactly the points where
   a crash-stop failure is observable: halting strictly inside an atomic
   primitive is indistinguishable from halting at one of its boundaries.

   Faults are plan-driven and deterministic: a rule halts process [pid]
   permanently at its k-th boundary crossing (the process never takes
   another step — [Halted] unwinds its domain).  Nothing here is
   randomized, so crash runs of the load harness ([Service.Load.run
   ~halts]) replay exactly. *)

type rule = { pid : int; boundary : int }

exception Halted of int

type t = {
  counters : int Atomic.t array;  (* boundary crossings, per pid *)
  down : bool Atomic.t array;  (* permanently halted? *)
  plan : int list array;  (* halting boundaries, indexed by pid *)
}

module M = struct
  open Wfs_obs.Metrics

  let boundaries = Counter.make "fault.boundaries"
  let halts = Counter.make "fault.halts"
end

let create ~n plan =
  if n <= 0 then invalid_arg "Fault.create: n";
  List.iter
    (fun { pid; _ } ->
      if pid < 0 || pid >= n then
        invalid_arg (Printf.sprintf "Fault.create: rule names pid %d" pid))
    plan;
  {
    counters = Array.init n (fun _ -> Atomic.make 0);
    down = Array.init n (fun _ -> Atomic.make false);
    plan =
      Array.init n (fun p ->
          List.filter_map
            (fun r -> if r.pid = p then Some r.boundary else None)
            plan);
  }

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
  if List.mem b t.plan.(pid) then begin
    Wfs_obs.Metrics.Counter.incr M.halts;
    Atomic.set t.down.(pid) true;
    raise (Halted pid)
  end

(* Two boundaries per operation: a halt at the first models a crash
   before the operation took effect, at the second a crash after the
   effect but before the response was delivered — the two faces of a
   pending operation in the crash-stop model. *)
let protect t ~pid f =
  boundary t ~pid;
  let r = f () in
  boundary t ~pid;
  r
