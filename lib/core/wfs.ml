(* Umbrella module: the public API of the wait-free synchronization
   library, re-exporting every sub-library under one namespace.

     Wfs.Value, Wfs.Op, Wfs.Object_spec, Wfs.Zoo    — specifications
     Wfs.Event, Wfs.History, Wfs.Linearizability   — histories
     Wfs.Process, Wfs.Env, Wfs.Scheduler,
     Wfs.Runner, Wfs.Explorer, Wfs.Valency         — simulation
     Wfs.Protocol, Wfs.Registry, ...               — consensus protocols
     Wfs.Interference, Wfs.Solver, Wfs.Table       — the hierarchy
     Wfs.Merge, Wfs.Replay, Wfs.Log_universal, ... — universal constructions
     Wfs.Runtime.*                                 — multicore runtime *)

(* specifications *)
module Value = Wfs_spec.Value
module Op = Wfs_spec.Op
module Object_spec = Wfs_spec.Object_spec
module Registers = Wfs_spec.Registers
module Queues = Wfs_spec.Queues
module Collections = Wfs_spec.Collections
module Memory = Wfs_spec.Memory
module Channels = Wfs_spec.Channels
module Fetch_and_cons = Wfs_spec.Fetch_and_cons
module Consensus_object = Wfs_spec.Consensus_object
module Zoo = Wfs_spec.Zoo

(* histories *)
module Event = Wfs_history.Event
module History = Wfs_history.History
module Linearizability = Wfs_history.Linearizability
module Sequential_consistency = Wfs_history.Sequential_consistency

(* simulation *)
module Process = Wfs_sim.Process
module Env = Wfs_sim.Env
module Scheduler = Wfs_sim.Scheduler
module Runner = Wfs_sim.Runner
module Explorer = Wfs_sim.Explorer
module Valency = Wfs_sim.Valency
module Intern = Wfs_sim.Intern
module Pool = Wfs_sim.Pool

(* consensus protocols *)
module Protocol = Wfs_consensus.Protocol
module Rmw_consensus = Wfs_consensus.Rmw_consensus
module Cas_consensus = Wfs_consensus.Cas_consensus
module Queue_consensus = Wfs_consensus.Queue_consensus
module Aug_queue_consensus = Wfs_consensus.Aug_queue_consensus
module Move_consensus = Wfs_consensus.Move_consensus
module Swap_consensus = Wfs_consensus.Swap_consensus
module Assign_consensus = Wfs_consensus.Assign_consensus
module Channel_consensus = Wfs_consensus.Channel_consensus
module Randomized = Wfs_consensus.Randomized
module Registry = Wfs_consensus.Registry

(* the hierarchy *)
module Interference = Wfs_hierarchy.Interference
module Solver = Wfs_hierarchy.Solver
module Table = Wfs_hierarchy.Table
module Census = Wfs_hierarchy.Census

(* universal constructions *)
module Merge = Wfs_universal.Merge
module Replay = Wfs_universal.Replay
module Log_universal = Wfs_universal.Log_universal
module Truncating_universal = Wfs_universal.Truncating_universal
module Consensus_fac = Wfs_universal.Consensus_fac
module Composed = Wfs_universal.Composed

(* observability: metrics, tracing, replayable counterexamples *)
module Obs = struct
  module Json = Wfs_obs.Json
  module Metrics = Wfs_obs.Metrics
  module Export = Wfs_obs.Export
  module Sampler = Wfs_obs.Sampler
  module Units = Wfs_obs.Units
  module Clock = Wfs_obs.Clock
  module Counterexample = Wfs_obs.Counterexample
  module Profile = Wfs_obs.Profile
  module Causal = Wfs_obs.Causal
end

(* multicore runtime *)
module Runtime = struct
  module Primitives = Wfs_runtime.Primitives
  module Consensus = Wfs_runtime.Consensus_rt
  module Fetch_and_cons = Wfs_runtime.Fetch_and_cons_rt
  module Universal = Wfs_runtime.Universal_rt
  module Seq_objects = Wfs_runtime.Seq_objects
  module Baselines = Wfs_runtime.Baselines
  module Lamport_queue = Wfs_runtime.Lamport_queue
  module Randomized = Wfs_runtime.Randomized_rt
  module Recorder = Wfs_runtime.Recorder
  module Fault = Wfs_runtime.Fault
  module Service = Wfs_runtime.Service
end
