(* wfs — command-line front door to the library.

   Subcommands:
     hierarchy   regenerate Figure 1-1 with machine-checked evidence
     verify      exhaustively verify one named consensus protocol
                 (prints a concrete counterexample schedule on failure;
                 --out FILE exports it as a replayable JSON trace)
     replay      re-execute an exported counterexample deterministically
     solve       run the bounded-protocol solvability solver
     census      measure every zoo object's bounded consensus number
     universal   run a universal-construction object exhaustively
     critical    find a critical (bivalent) state of a protocol
     load        closed-loop load generator for the universal object
                 service, checked against the construction's own
                 linearization witness; with --halts k a crash run
                 (halt k clients, survivors must complete, the halted
                 clients' operations checked as pending); watch it
                 live with --metrics-port and wfs top
     randomized  check the randomized register-consensus extension
     top         live terminal view of a concurrent run's telemetry,
                 polling the OpenMetrics file or HTTP endpoint that
                 --metrics-out / --metrics-port publish
     zoo         list the object zoo

   Live telemetry has one source: the metrics sampler ([Obs.Sampler])
   snapshots the registry once per interval and feeds the
   --metrics-out file, the --metrics-port endpoint and the --progress
   heartbeat.

   Exit codes, uniformly: 0 = checked and passed, 1 = a violation /
   failed check / exhausted budget, 2 = bad input (unknown protocol,
   malformed counterexample file); cmdliner keeps its own 124 for
   command-line parse errors. *)

open Cmdliner
open Wfs

(* --- shared -j plumbing ---

   [-j 1] (the default) never constructs a pool, so those runs go
   through the sequential engines untouched — byte-identical output to
   a build without the pool.  [-j 0] means "all cores". *)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Verification domains: shard independent verifications (and, \
           for verify, the exploration itself) across $(docv) domains. \
           1 = sequential engines, byte-identical to previous releases; \
           0 = one domain per core.")

(* Returns [None] for invalid [j] so callers can exit 2 uniformly. *)
let with_jobs j f =
  if j < 0 then None
  else
    let domains = if j = 0 then Domain.recommended_domain_count () else j in
    if domains <= 1 then Some (f None)
    else
      Pool.with_pool ~domains (fun pool -> Some (f (Some pool)))

let bad_jobs j =
  Fmt.epr "-j must be >= 0 (got %d)@." j;
  2

(* Report an input error and return the bad-input exit code. *)
let bad_input msg =
  Fmt.epr "%s@." msg;
  2

(* --- shared observability flags ---

   --progress, --profile, --metrics-out and --metrics-port are declared
   once, as [obs_term], and every long-running command wraps its run in
   [obs_setup].  [obs_setup] must wrap [with_jobs]: profiling has to be
   on before the pool spawns its workers (each worker announces itself
   to the trace at startup), and the profile is written only after the
   wrapped run returns — by then the pool has been shut down and
   joined, so every domain's ring buffer is quiescent. *)

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Print a heartbeat line to stderr once per second while the \
           run is in flight (states, per-second rate, frontier, pruned \
           edges, elapsed), then a final line with the exact state \
           total.")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Record a span profile of the run and write it to $(docv) as \
           Chrome trace_event JSON (load in ui.perfetto.dev or \
           chrome://tracing).  Under load the file also \
           carries the causal invocation trace (help edges as flow \
           arrows between domain tracks); audit it with wfs trace.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Sample the metrics registry once per second and atomically \
           rewrite $(docv) with the OpenMetrics text exposition — a live \
           scrape target for wfs top and CI.")

let metrics_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "metrics-port" ] ~docv:"PORT"
        ~doc:
          "Serve the latest metrics snapshot as OpenMetrics text over \
           HTTP on localhost:$(docv) (GET /metrics) while the run is in \
           flight.")

type obs = {
  progress : bool;
  profile : string option;
  metrics_out : string option;
  metrics_port : int option;
}

let obs_term =
  Term.(
    const (fun progress profile metrics_out metrics_port ->
        { progress; profile; metrics_out; metrics_port })
    $ progress_arg $ profile_arg $ metrics_out_arg $ metrics_port_arg)

(* Output files are created before the run, so an unwritable path is a
   bad-input exit up front rather than an exception after the work. *)
let with_writable what path f =
  match Option.map open_out path with
  | exception Sys_error msg ->
      Fmt.epr "cannot write %s: %s@." what msg;
      2
  | oc ->
      Option.iter close_out oc;
      f ()

(* A write after the run (the profile) that fails — a full disk —
   is reported like the up-front check: a message and exit 2. *)
let write_output what f =
  match f () with
  | () -> 0
  | exception Sys_error msg ->
      Fmt.epr "cannot write %s: %s@." what msg;
      2

(* Ports are 16-bit: out-of-range values would otherwise wrap. *)
let valid_port p = 0 <= p && p <= 65535

let bad_port flag p =
  bad_input (Fmt.str "%s must be in [0, 65535] (got %d)" flag p)

let obs_setup { progress; profile; metrics_out; metrics_port } ~label
    ?(crashes = 0) f =
  match metrics_port with
  | Some p when not (valid_port p) -> bad_port "--metrics-port" p
  | _ ->
  with_writable "profile" profile @@ fun () ->
  (* one sampler feeds every live consumer: the file sink, the HTTP
     endpoint and the heartbeat hook.  It starts first so its ring
     already has a baseline when the pool spawns *)
  let on_sample =
    if progress then Some (Obs.Sampler.progress ~label ~crashes ()) else None
  in
  let sampler =
    if (not progress) && metrics_out = None && metrics_port = None then
      Ok None
    else
      try
        Ok
          (Some
             (Obs.Sampler.start ?out_file:metrics_out ?port:metrics_port
                ?on_sample ()))
      with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  match sampler with
  | Error msg ->
      Fmt.epr "cannot start metrics sampler: %s@." msg;
      2
  | Ok sampler -> (
      (match profile with Some _ -> Obs.Profile.enable () | None -> ());
      (* a published scrape implies the hot-path counters should record:
         without this the runtime's gated universal_rt/service metrics
         export as zeros.  The heartbeat alone leaves the per-op path
         as it is. *)
      let was_hot = Obs.Metrics.hot () in
      if metrics_out <> None || metrics_port <> None then
        Obs.Metrics.set_hot true;
      (* the sampler stops first, so the final heartbeat, file rewrite
         and progress counter tracks carry the end-of-run values even
         when a profile write then fails *)
      let finish () =
        Option.iter Obs.Sampler.stop sampler;
        Obs.Metrics.set_hot was_hot;
        Option.iter (Fmt.epr "metrics written to %s@.") metrics_out;
        match profile with
        | None -> 0
        | Some path ->
            Obs.Profile.disable ();
            write_output "profile" (fun () ->
                Obs.Profile.write path;
                Fmt.epr "profile written to %s (%d events%s)@." path
                  (Obs.Profile.recorded ())
                  (let d = Obs.Profile.dropped () in
                   if d = 0 then "" else Fmt.str ", %d dropped" d))
      in
      match f () with
      | code -> ( match finish () with 0 -> code | failed -> failed)
      | exception e ->
          ignore (finish ());
          raise e)

(* --- hierarchy --- *)

let hierarchy_cmd =
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Include the expensive solver instances (minutes).")
  in
  let run full j obs =
    obs_setup obs ~label:"hierarchy" (fun () ->
      match
        with_jobs j (fun pool ->
            let table = Table.generate ?pool ~full () in
            Fmt.pr "%a@." Table.pp table;
            if Table.consistent table then begin
              Fmt.pr "@.All rows consistent with Figure 1-1.@.";
              0
            end
            else begin
              Fmt.pr "@.INCONSISTENT rows found!@.";
              1
            end)
      with
      | Some code -> code
      | None -> bad_jobs j)
  in
  Cmd.v
    (Cmd.info "hierarchy" ~doc:"Regenerate the Figure 1-1 hierarchy table")
    Term.(const run $ full $ jobs_arg $ obs_term)

(* --- verify --- *)

let registry_key_arg =
  let keys = Registry.keys () in
  let doc = Fmt.str "Protocol key: one of %s." (String.concat ", " keys) in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROTOCOL" ~doc)

let n_arg = Arg.(value & opt int 2 & info [ "n" ] ~doc:"Number of processes.")

(* [n] must be positive and the crash-stop budget must leave a
   survivor: [Some code] is the bad-input exit. *)
let check_crashes ~n crashes =
  if n < 1 then begin
    Fmt.epr "n must be >= 1 (got %d)@." n;
    Some 2
  end
  else if crashes < 0 || crashes >= n then begin
    Fmt.epr "--crashes must be in [0, n-1] (got %d with n = %d)@." crashes n;
    Some 2
  end
  else None

(* Build a registry protocol at [n], or report why not (exit 2). *)
let build_protocol key n =
  match (Registry.find key).Registry.build ~n with
  | exception Invalid_argument msg -> Error (bad_input msg)
  | None ->
      Fmt.epr "%s does not support n = %d@." key n;
      Error 2
  | Some protocol -> Ok protocol

let verify_cmd =
  let max_states =
    Arg.(
      value & opt int 2_000_000
      & info [ "max-states" ]
          ~doc:"State budget for the exhaustive exploration.")
  in
  let max_depth =
    Arg.(
      value & opt int 10_000
      & info [ "max-depth" ] ~doc:"Depth budget for the exploration DFS.")
  in
  let crashes =
    Arg.(
      value & opt int 0
      & info [ "crashes" ]
          ~doc:
            "Crash-stop adversary budget: additionally quantify over every \
             placement of up to this many permanent process halts \
             (wait-freedom's own failure model). 0 checks the crash-free \
             semantics.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "On violation, export the counterexample schedule to $(docv) \
             as replayable JSON (see the replay subcommand).")
  in
  let run key n max_states max_depth out crashes j obs =
    match check_crashes ~n crashes with
    | Some code -> code
    | None -> (
        match build_protocol key n with
        | Error code -> code
        | Ok protocol ->
            obs_setup obs ~crashes ~label:(Fmt.str "verify %s n=%d" key n)
              (fun () ->
                match
                  with_jobs j (fun pool ->
                      match
                        Protocol.verify ~max_states ~max_depth ~crashes ?pool
                          protocol
                      with
                      | exception Invalid_argument msg -> bad_input msg
                      | report ->
                          Fmt.pr "%s (%s), n = %d:@.%a@."
                            protocol.Protocol.name protocol.Protocol.theorem n
                            Protocol.pp_report report;
                          if report.Protocol.truncated then
                            Fmt.pr
                              "exploration truncated by the %s — raise \
                               --max-states / --max-depth for a complete \
                               verdict@."
                              (Protocol.truncation_label
                                 report.Protocol.truncation);
                          if Protocol.passed report then 0
                          else begin
                            (match
                               Protocol.find_violation ~max_states ~crashes
                                 protocol
                             with
                            | Some v ->
                                Fmt.pr "@.counterexample: %a@."
                                  Protocol.pp_violation v;
                                (match out with
                                | Some path ->
                                    Obs.Counterexample.save path
                                      (Protocol.violation_to_counterexample
                                         ~protocol:key ~n v);
                                    Fmt.pr "counterexample written to %s@."
                                      path
                                | None -> ())
                            | None ->
                                Fmt.pr
                                  "@.no schedule-shaped counterexample \
                                   (failure is a cycle, truncation or stuck \
                                   process)@.");
                            1
                          end)
                with
                | Some code -> code
                | None -> bad_jobs j))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Exhaustively verify a consensus protocol over all schedules, \
          optionally under a crash-stop adversary (--crashes)")
    Term.(
      const run $ registry_key_arg $ n_arg $ max_states $ max_depth $ out
      $ crashes $ jobs_arg $ obs_term)

(* --- replay --- *)

let replay_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Counterexample JSON written by verify --out.")
  in
  let run file =
    match Obs.Counterexample.load file with
    | exception Sys_error msg -> bad_input msg
    | exception Obs.Json.Parse_error msg ->
        Fmt.epr "%s: malformed JSON: %s@." file msg;
        2
    | exception Invalid_argument msg -> bad_input (file ^ ": " ^ msg)
    | ce -> (
        Fmt.pr "%a@." Obs.Counterexample.pp ce;
        match
          build_protocol ce.Obs.Counterexample.protocol ce.Obs.Counterexample.n
        with
        | Error code -> code
        | Ok protocol -> (
            match Protocol.replay_counterexample protocol ce with
            | Ok v ->
                Fmt.pr "@.reproduced deterministically: %a@."
                  Protocol.pp_violation v;
                0
            | Error reason ->
                Fmt.pr "@.NOT reproduced: %s@." reason;
                1
            | exception Invalid_argument msg -> bad_input msg))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute an exported counterexample schedule deterministically \
          through the explorer and check the same violation recurs")
    Term.(const run $ file)

(* --- solve --- *)

let solve_cmd =
  let object_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OBJECT"
          ~doc:"Zoo object name (see the zoo subcommand), e.g. fifo-queue.")
  in
  let depth =
    Arg.(value & opt int 2 & info [ "d"; "depth" ] ~doc:"Max operations per process.")
  in
  let budget =
    Arg.(value & opt int 20_000_000 & info [ "budget" ] ~doc:"Search-node budget.")
  in
  let critical =
    Arg.(
      value & flag
      & info [ "critical-depth" ]
          ~doc:
            "Instead of one verdict at --depth, binary-search the least \
             step bound (up to --depth) at which consensus becomes \
             solvable from some candidate initialization, sharing one \
             transposition context across the probes.")
  in
  let run object_name n depth budget critical =
    match Zoo.find object_name with
    | exception Invalid_argument msg -> bad_input msg
    | spec -> (
        try
          if critical then begin
            let c =
              Census.critical_depth ~max_nodes:budget ~n ~max_depth:depth spec
            in
            Fmt.pr "%s, n = %d, max depth = %d:@.%a@." object_name n depth
              Census.pp_critical c;
            match c.Census.critical with Some _ -> 0 | None -> 1
          end
          else
            let verdict =
              Solver.solve ~max_nodes:budget (Solver.of_spec ~n ~depth spec)
            in
            Fmt.pr "%s, n = %d, depth = %d:@.%a@." object_name n depth
              Solver.pp_verdict verdict;
            match verdict with
            | Solver.Solvable _ | Solver.Unsolvable -> 0
            | Solver.Out_of_budget _ -> 1
        with Invalid_argument msg -> bad_input msg)
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Decide bounded wait-free consensus solvability by strategy \
          synthesis; UNSOLVABLE is a machine-checked impossibility proof")
    Term.(
      const run $ object_name $ n_arg $ depth $ budget $ critical)

(* --- universal --- *)

let universal_cmd =
  let target =
    Arg.(
      value & opt string "fifo-queue"
      & info [ "target" ] ~doc:"Zoo object to implement universally.")
  in
  let variant =
    Arg.(
      value
      & opt (enum [ ("log", `Log); ("truncating", `Truncating) ]) `Log
      & info [ "variant" ] ~doc:"Construction: log or truncating.")
  in
  let run target variant =
    match Zoo.find target with
    | exception Invalid_argument msg -> bad_input msg
    | spec ->
        let menu = Array.of_list spec.Object_spec.menu in
        let scripts =
          [| [ menu.(0); menu.(1 mod Array.length menu) ]; [ menu.(0) ] |]
        in
        (match variant with
        | `Log ->
            let v = Log_universal.verify ~target:spec ~scripts () in
            Fmt.pr
              "log universal construction of %s: ok=%b states=%d terminals=%d@."
              target v.Log_universal.ok v.Log_universal.states
              v.Log_universal.terminals;
            if v.Log_universal.ok then 0 else 1
        | `Truncating ->
            let v = Truncating_universal.verify ~target:spec ~scripts () in
            Fmt.pr
              "truncating universal construction of %s: ok=%b states=%d \
               max-replay=%d@."
              target v.Truncating_universal.ok v.Truncating_universal.states
              v.Truncating_universal.max_replay;
            if v.Truncating_universal.ok then 0 else 1)
  in
  Cmd.v
    (Cmd.info "universal"
       ~doc:"Exhaustively verify a universal construction of a zoo object")
    Term.(const run $ target $ variant)

(* --- census --- *)

let census_cmd =
  let budget =
    Arg.(
      value & opt int 30_000_000
      & info [ "budget" ] ~doc:"Search-node budget per solver run.")
  in
  let max_depth =
    Arg.(
      value & opt (some int) None
      & info [ "max-depth" ]
          ~doc:
            "Cap on operations per process (bounds both the n=2 and n=3 \
             instances; defaults are 2 and 1).")
  in
  let run budget max_depth j obs =
    let depth2 = match max_depth with Some d -> min d 2 | None -> 2 in
    let depth3 = match max_depth with Some d -> min d 1 | None -> 1 in
    obs_setup obs ~label:"census" (fun () ->
      match
        with_jobs j (fun pool ->
            match
              Census.run ~depth2 ~depth3 ~max_nodes:budget ?pool ()
            with
            | exception Invalid_argument msg -> bad_input msg
            | results ->
                Fmt.pr
                  "solver-only census (bounded: n=2 within %d op(s), n=3 \
                   within %d op(s),@.over initializations reachable in ≤ 2 \
                   operations):@.@."
                  depth2 depth3;
                Fmt.pr "%a@." Census.pp results;
                let budget_hit =
                  List.exists
                    (fun (m : Census.measurement) ->
                      fst m.Census.two_proc = Census.Budget
                      || fst m.Census.three_proc = Census.Budget)
                    results
                in
                if budget_hit then begin
                  Fmt.pr
                    "@.some verdicts hit the node budget — raise --budget \
                     for a conclusive census@.";
                  1
                end
                else 0)
      with
      | Some code -> code
      | None -> bad_jobs j)
  in
  Cmd.v
    (Cmd.info "census"
       ~doc:
         "Measure every zoo object's bounded consensus number with the \
          solver alone")
    Term.(
      const run $ budget $ max_depth $ jobs_arg $ obs_term)

(* --- critical --- *)

let critical_cmd =
  let crashes =
    Arg.(
      value & opt int 0
      & info [ "crashes" ]
          ~doc:
            "Crash-stop adversary budget for the valency analysis: crash \
             successors count as branches, so a state is critical only if \
             even the adversary's halts commit the outcome.")
  in
  let run key n crashes =
    match check_crashes ~n crashes with
    | Some code -> code
    | None -> (
        match build_protocol key n with
        | Error code -> code
        | Ok protocol -> (
            match Valency.find_critical ~crashes protocol.Protocol.config with
            | Some crit ->
                Fmt.pr
                  "critical state of %s: bivalent, every successor \
                   univalent@."
                  protocol.Protocol.name;
                List.iter
                  (fun (pid, _, v) ->
                    Fmt.pr "  P%d moves next  =>  outcome pinned to %a@." pid
                      Valency.pp_valency v)
                  crit.Valency.branches;
                0
            | None ->
                Fmt.pr "no critical state reachable (protocol univalent?)@.";
                1))
  in
  Cmd.v
    (Cmd.info "critical"
       ~doc:
         "Find a critical (bivalent, decision-pending) state of a protocol — \
          the engine of the paper's impossibility proofs")
    Term.(const run $ registry_key_arg $ n_arg $ crashes)

(* --- universal object service: load --- *)

let service_object_arg =
  Arg.(
    value & opt string "counter"
    & info [ "object" ] ~docv:"NAME"
        ~doc:"Served object: counter, fifo-queue or kv-map.")

let service_window_arg =
  Arg.(
    value & opt int 32
    & info [ "window" ]
        ~doc:
          "Log positions between state snapshots — the §4.1 truncation \
           window bounding retained memory and replay cost.")

let service_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~doc:"Per-client operation-stream seed (runs replay).")

let service_spec name =
  List.find_opt
    (fun s -> s.Object_spec.name = name)
    (Runtime.Service.default_specs ())

(* --- causal tracing plumbing --- *)

let trace_sample_arg =
  Arg.(
    value & opt int 64
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:
          "Trace one invocation in $(docv) (rounded up to a power of \
           two); 1 traces everything.")

let load_cmd =
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Client domains.")
  in
  let ops =
    Arg.(
      value & opt int 250_000
      & info [ "ops" ]
          ~doc:"Operations per client (each client runs a closed loop).")
  in
  let halts =
    Arg.(
      value & opt int 0
      & info [ "halts" ]
          ~doc:
            "Clients to halt mid-operation (client k inside its (k+1)-th \
             operation, so --ops must be at least this); each halted \
             client's in-flight operation is checked as pending.")
  in
  let run clients ops object_name window seed halts trace_sample obs =
    (* a sampling period below 1 is a bad-input exit before any work *)
    if trace_sample < 1 then
      bad_input (Fmt.str "--trace-sample must be >= 1 (got %d)" trace_sample)
    else
    obs_setup obs ~label:"load" (fun () ->
        match service_spec object_name with
        | None ->
            Fmt.epr "unknown object %S (try fifo-queue, counter, kv-map)@."
              object_name;
            2
        | Some spec ->
            (* Under --profile, every 64th announce ticket takes the
               helped slow path (briefly parking after announcing), so
               cross-client help edges are recorded even when domains
               time-slice and never race. *)
            let canary = if obs.profile <> None then 64 else 0 in
            (* Causal tracing is always on under load (sampled, so the
               hot path stays within budget): the rings double as the
               crash flight recorder, dumped as JSONL whenever the run
               fails its checks or the harness dies mid-flight. *)
            Obs.Causal.enable ~sample:trace_sample ();
            let flight_path =
              match obs.profile with
              | Some f -> f ^ ".flight.jsonl"
              | None -> "wfs-flight.jsonl"
            in
            let ok = ref false in
            Fun.protect
              ~finally:(fun () ->
                (* runs even when the harness aborts via exception: the
                   post-mortem is most valuable exactly then *)
                if not !ok then begin
                  let lines = Obs.Profile.dump_jsonl flight_path in
                  Fmt.epr "flight recorder: %d events -> %s@." lines
                    flight_path
                end;
                Obs.Causal.disable ())
              (fun () ->
                match
                  Runtime.Service.Load.run ~seed ~window ~halts ~spec ~canary
                    ~clients ~ops_per_client:ops ()
                with
                | exception Invalid_argument msg ->
                    (* an input error, not a crashed run: no post-mortem *)
                    ok := true;
                    bad_input msg
                | r ->
                    Fmt.pr "%a@." Runtime.Service.Load.pp_report r;
                    if Runtime.Service.Load.passed r then begin
                      ok := true;
                      0
                    end
                    else 1))
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Closed-loop load generator for the universal object service: \
          drive one object from many client domains through the batched + \
          truncating wait-free construction, then prove the run correct \
          against the linearization order the construction reports: \
          positions distinct and gap-free (halted clients' pending \
          operations may fill gaps), real-time order respected, and a \
          sequential replay reproducing every result; with --halts, also \
          that every halt landed and every survivor finished.  Reports \
          throughput, latency quantiles and truncation telemetry; watch it \
          live with --metrics-port and wfs top.")
    Term.(
      const run $ clients $ ops $ service_object_arg $ service_window_arg
      $ service_seed_arg $ halts $ trace_sample_arg $ obs_term)

(* --- trace: summarize / audit a causal trace file --- *)

let trace_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Trace JSON written by a wfs load --profile run.")
  in
  let audit =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "Exit nonzero unless the trace passes the wait-freedom audit: \
             at least one completed invocation, every completed \
             invocation's object registered with a bound and its \
             own-step count within it, and the help edges acyclic.")
  in
  let run file audit =
    let contents =
      try
        let ic = open_in_bin file in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Ok (really_input_string ic (in_channel_length ic)))
      with Sys_error msg -> Error msg
    in
    match contents with
    | Error msg -> bad_input msg
    | Ok contents -> (
        match Obs.Causal.Audit.of_trace_json (Obs.Json.of_string contents) with
        | exception Obs.Json.Parse_error msg ->
            Fmt.epr "%s: not JSON: %s@." file msg;
            2
        | exception Invalid_argument msg -> bad_input (file ^ ": " ^ msg)
        | report ->
            Fmt.pr "%a@." Obs.Causal.Audit.pp report;
            if audit then
              if Obs.Causal.Audit.ok report then begin
                Fmt.pr "audit: ok@.";
                0
              end
              else begin
                Fmt.pr "audit: FAILED@.";
                1
              end
            else 0)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Summarize a causal trace recorded by wfs load --profile: \
          help-chain depth distribution, own-step and help-round maxima, \
          top helpers — and with --audit, verify the wait-freedom bound \
          (own steps within the construction's 2n+8) and that help edges \
          form a DAG, exiting nonzero on violation")
    Term.(const run $ file $ audit)

(* --- randomized --- *)

let randomized_cmd =
  let flips =
    Arg.(value & opt int 3 & info [ "flips" ]
           ~doc:"Adversarial coin-sequence length for the exhaustive check.")
  in
  let run flips =
    match Randomized.verify_all_coins ~flips () with
    | exception Invalid_argument msg -> bad_input msg
    | v ->
        Fmt.pr
          "randomized 2-process consensus from registers (Theorem 2 \
           escapes@.via coin flips — §5's open problem, after \
           Abrahamson):@.@.";
        Fmt.pr
          "exhaustive safety: ok=%b over %d configurations (%d joint \
           states)@."
          v.Randomized.ok v.Randomized.configurations v.Randomized.states;
        Fmt.pr "aborts possible with only %d coins: %b@." flips
          v.Randomized.aborts_possible;
        if v.Randomized.ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "randomized"
       ~doc:"Exhaustively check the randomized register consensus extension")
    Term.(const run $ flips)

(* --- live view (wfs top) ---

   Renders one terminal page from two OpenMetrics scrapes: totals come
   from the newer scrape, rates and histogram quantiles from the
   per-interval deltas between the two.  Sections with no data (e.g. the
   runtime block during a pure-simulator run) are omitted. *)

module Live = struct
  open Obs.Export

  type frame = { at : float; samples : sample list }

  let value ?(labels = []) frame name =
    Option.value ~default:0. (find frame.samples name labels)

  let delta ?labels prev cur name =
    value ?labels cur name -. value ?labels prev name

  (* Shards present in a scrape, in numeric order. *)
  let shards frame =
    List.filter_map
      (fun s ->
        if s.s_name = "wfs_pool_shard_states" then
          List.assoc_opt "shard" s.s_labels
        else None)
      frame.samples
    |> List.sort_uniq (fun a b ->
           compare (int_of_string_opt a, a) (int_of_string_opt b, b))

  let buckets frame family =
    List.filter_map
      (fun s ->
        if s.s_name = family ^ "_bucket" then
          match List.assoc_opt "le" s.s_labels with
          | Some "+Inf" -> Some (infinity, s.s_value)
          | Some le ->
              Option.map (fun f -> (f, s.s_value)) (float_of_string_opt le)
          | None -> None
        else None)
      frame.samples
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)

  (* Quantile of the events that fell in (prev, cur]: subtract the two
     cumulative bucket vectors, then walk the still-cumulative deltas to
     the first upper bound covering [q] of the interval's total. *)
  let quantile prev cur family q =
    let pb = buckets prev family in
    let d =
      List.map
        (fun (le, c) ->
          let p = Option.value ~default:0. (List.assoc_opt le pb) in
          (le, c -. p))
        (buckets cur family)
    in
    match List.rev d with
    | [] -> None
    | (_, total) :: _ when total <= 0. -> None
    | (_, total) :: _ ->
        let target = q *. total in
        Option.map fst (List.find_opt (fun (_, c) -> c >= target) d)

  let pp_le = function
    | None -> "-"
    | Some le when le = infinity -> "inf"
    | Some le -> Printf.sprintf "%.0f" le

  let render ~ansi ~title ~prev ~cur =
    let buf = Buffer.create 2048 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let bold s = if ansi then "\027[1m" ^ s ^ "\027[0m" else s in
    let dim s = if ansi then "\027[2m" ^ s ^ "\027[0m" else s in
    let dt =
      let d = cur.at -. prev.at in
      if d > 0. then d else 1.
    in
    let v ?labels name = value ?labels cur name in
    let d ?labels name = delta ?labels prev cur name in
    let rate ?labels name = Obs.Units.rate (d ?labels name /. dt) in
    let ratio num den = if den > 0. then num /. den else 0. in
    add "%s  %s\n\n" (bold title)
      (dim (Printf.sprintf "interval %.1fs" dt));
    (* exploration: states/sec is the headline number of every engine *)
    if v "wfs_explorer_states_total" > 0. then
      add "%s  %s states  %s   frontier %s%s\n"
        (bold "explore ")
        (Obs.Units.si (v "wfs_explorer_states_total"))
        (rate "wfs_explorer_states_total")
        (Obs.Units.si (v "wfs_explorer_frontier"))
        (let p = v "wfs_explorer_por_pruned_total" in
         if p > 0. then
           Printf.sprintf "   por-pruned %s  %s" (Obs.Units.si p)
             (rate "wfs_explorer_por_pruned_total")
         else "");
    (* per-shard load: one row per pool member with any series *)
    (match shards cur with
    | [] -> ()
    | shs ->
        add "%s  %s\n" (bold "shards  ")
          (dim "shard     states   states/s       jobs  busy");
        List.iter
          (fun sh ->
            let labels = [ ("shard", sh) ] in
            let busy =
              ratio (d ~labels "wfs_pool_shard_busy_ns") (dt *. 1e9)
            in
            add "         %5s  %9s  %9s  %9s  %s\n" sh
              (Obs.Units.si (v ~labels "wfs_pool_shard_states"))
              (rate ~labels "wfs_pool_shard_states")
              (Obs.Units.si (v ~labels "wfs_pool_shard_jobs_total"))
              (Obs.Units.percent (min 1. busy)))
          shs);
    if v "wfs_intern_lookups_total" > 0. then
      add "%s  %s lookups  %s   hit %s   contention %s\n"
        (bold "intern  ")
        (Obs.Units.si (v "wfs_intern_lookups_total"))
        (rate "wfs_intern_lookups_total")
        (Obs.Units.percent
           (ratio (d "wfs_intern_hits_total") (d "wfs_intern_lookups_total")))
        (rate "wfs_intern_contention_total");
    if v "wfs_solver_nodes_total" > 0. then
      add "%s  %s nodes  %s   memo hit %s%s\n"
        (bold "solver  ")
        (Obs.Units.si (v "wfs_solver_nodes_total"))
        (rate "wfs_solver_nodes_total")
        (Obs.Units.percent
           (ratio
              (d "wfs_solver_memo_hits_total")
              (d "wfs_solver_memo_hits_total"
              +. d "wfs_solver_memo_misses_total")))
        (let c = v "wfs_solver_cutoff_sleep_total" in
         if c > 0. then
           Printf.sprintf "   sleep cut %s  %s" (Obs.Units.si c)
             (rate "wfs_solver_cutoff_sleep_total")
         else "");
    (let h = v "wfs_solver_tt_hits_total"
     and m = v "wfs_solver_tt_misses_total" in
     if h +. m > 0. then
       add "%s  hit %s (%s)   rejects %s   backjumps %s  %s\n"
         (bold "solve-tt")
         (Obs.Units.percent
            (ratio
               (d "wfs_solver_tt_hits_total")
               (d "wfs_solver_tt_hits_total"
               +. d "wfs_solver_tt_misses_total")))
         (Obs.Units.si h)
         (Obs.Units.si (v "wfs_solver_tt_footprint_rejects_total"))
         (Obs.Units.si (v "wfs_solver_tt_backjumps_total"))
         (rate "wfs_solver_tt_backjumps_total"));
    let hist = "wfs_universal_rt_wait_free_help_rounds_hist" in
    if v (hist ^ "_count") > 0. then
      add "%s  %s ops  %s   help rounds p50 %s p99 %s   announce %.0f   log %s\n"
        (bold "runtime ")
        (Obs.Units.si (v "wfs_universal_rt_wait_free_ops_total"))
        (rate "wfs_universal_rt_wait_free_ops_total")
        (pp_le (quantile prev cur hist 0.50))
        (pp_le (quantile prev cur hist 0.99))
        (v "wfs_universal_rt_wait_free_announce_occupancy")
        (Obs.Units.si (v "wfs_universal_rt_wait_free_log_length"));
    if v "wfs_consensus_rt_one_shot_retries_total" > 0. then
      add "%s  one-shot retries %s  %s\n"
        (bold "consensus")
        (Obs.Units.si (v "wfs_consensus_rt_one_shot_retries_total"))
        (rate "wfs_consensus_rt_one_shot_retries_total");
    if v "wfs_log_universal_states_total" > 0. then
      add "%s  %s states  %s   max log %s\n"
        (bold "log-univ")
        (Obs.Units.si (v "wfs_log_universal_states_total"))
        (rate "wfs_log_universal_states_total")
        (Obs.Units.si (v "wfs_log_universal_log_length"));
    Buffer.contents buf
end

(* --- top --- *)

let find_substring hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i =
    if i + m > n then None
    else if String.sub hay i m = needle then Some i
    else go (i + 1)
  in
  go 0

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One-shot HTTP GET against the sampler's loopback endpoint, stdlib
   [Unix] only; Connection: close makes EOF the response delimiter. *)
let http_get_metrics port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
      in
      let _ = Unix.write_substring fd req 0 (String.length req) in
      let buf = Buffer.create 8192 in
      let chunk = Bytes.create 8192 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      let s = Buffer.contents buf in
      match find_substring s "\r\n\r\n" with
      | Some i -> String.sub s (i + 4) (String.length s - i - 4)
      | None -> s)

let scrape source =
  match
    match source with
    | `File path -> read_whole_file path
    | `Port p -> http_get_metrics p
  with
  | text -> Ok { Live.at = Unix.gettimeofday (); samples = Obs.Export.parse text }
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Obs.Export.Parse_error msg -> Error ("parse error: " ^ msg)

(* Raw, non-echoing stdin so a bare 'q' quits without Enter. *)
let with_raw_stdin ~interactive f =
  if not interactive then f ()
  else
    match Unix.tcgetattr Unix.stdin with
    | exception Unix.Unix_error _ -> f ()
    | tio ->
        let raw = { tio with Unix.c_icanon = false; c_echo = false } in
        Unix.tcsetattr Unix.stdin Unix.TCSANOW raw;
        Fun.protect
          ~finally:(fun () -> Unix.tcsetattr Unix.stdin Unix.TCSANOW tio)
          f

(* Sleep [seconds], returning [true] early if the user pressed q. *)
let wait_or_quit ~interactive seconds =
  if not interactive then begin
    Unix.sleepf seconds;
    false
  end
  else
    match Unix.select [ Unix.stdin ] [] [] seconds with
    | [ _ ], _, _ -> (
        let b = Bytes.create 1 in
        match Unix.read Unix.stdin b 0 1 with
        | 1 -> Bytes.get b 0 = 'q' || Bytes.get b 0 = 'Q'
        | _ -> true (* stdin EOF: select would spin, so stop polling it *))
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let top_cmd =
  let from_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "from" ] ~docv:"FILE"
          ~doc:
            "Poll $(docv) each interval — the file a concurrent run is \
             rewriting via --metrics-out.")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "Poll http://localhost:$(docv)/metrics each interval — the \
             endpoint a concurrent run is serving via --metrics-port.")
  in
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "i"; "interval" ] ~docv:"SECONDS" ~doc:"Refresh interval.")
  in
  let count_arg =
    Arg.(
      value & opt int 0
      & info [ "n"; "count" ] ~docv:"N"
          ~doc:
            "Render $(docv) frames and exit (0 = run until q / Ctrl-C / \
             the source disappears).")
  in
  let run from port interval count =
    match (from, port) with
    | None, None ->
        Fmt.epr "wfs top needs a source: --from FILE or --port PORT@.";
        2
    | Some _, Some _ ->
        Fmt.epr "--from and --port are mutually exclusive@.";
        2
    | _ when interval <= 0. ->
        Fmt.epr "--interval must be positive@.";
        2
    | _, Some p when not (valid_port p) -> bad_port "--port" p
    | _ ->
        let source, title =
          match from with
          | Some f -> (`File f, Fmt.str "wfs top — %s" f)
          | None ->
              let p = Option.get port in
              (`Port p, Fmt.str "wfs top — localhost:%d/metrics" p)
        in
        let interactive = Unix.isatty Unix.stdin in
        let ansi = Unix.isatty Unix.stdout in
        with_raw_stdin ~interactive (fun () ->
            let quit = ref false in
            let code = ref 0 in
            let frames = ref 0 in
            let misses = ref 0 in
            let prev = ref None in
            while not !quit do
              (match scrape source with
              | Ok cur ->
                  misses := 0;
                  (* first frame renders against itself: totals, no rates *)
                  let p = Option.value ~default:cur !prev in
                  let page = Live.render ~ansi ~title ~prev:p ~cur in
                  if ansi then print_string "\027[2J\027[H";
                  print_string page;
                  if interactive then print_string "\nq to quit\n";
                  flush stdout;
                  prev := Some cur;
                  incr frames;
                  if count > 0 && !frames >= count then quit := true
              | Error msg ->
                  incr misses;
                  if !prev <> None || !misses >= 10 then begin
                    (* the watched run ended (or never appeared) *)
                    Fmt.epr "source gone: %s@." msg;
                    if !prev = None then code := 1;
                    quit := true
                  end);
              if not !quit then quit := wait_or_quit ~interactive interval
            done;
            !code)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal view of a concurrent run's telemetry: poll the \
          OpenMetrics file or endpoint another wfs command is publishing \
          (--metrics-out / --metrics-port) and render per-interval rates \
          — states/s per shard, interner hit rate, help-round quantiles")
    Term.(const run $ from_arg $ port_arg $ interval_arg $ count_arg)

(* --- zoo --- *)

let zoo_cmd =
  let run () =
    List.iter
      (fun spec ->
        Fmt.pr "%-22s %d menu operations@." spec.Object_spec.name
          (List.length spec.Object_spec.menu))
      (Zoo.all ());
    0
  in
  Cmd.v (Cmd.info "zoo" ~doc:"List the object zoo") Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "wfs" ~version:"1.0.0"
       ~doc:
         "Wait-free synchronization: the consensus hierarchy and universal \
          constructions of Herlihy (PODC 1988), executable")
    [
      hierarchy_cmd; verify_cmd; replay_cmd; solve_cmd; universal_cmd;
      census_cmd; critical_cmd; load_cmd; trace_cmd;
      randomized_cmd; top_cmd; zoo_cmd;
    ]

let () = exit (Cmd.eval' main)
