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
   its domain).  Nothing here is randomized, so crash runs of the load
   harness ([Service.Load.run ~halts]) replay exactly. *)

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
