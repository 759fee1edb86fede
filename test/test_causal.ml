(* Causal invocation tracing, the wait-freedom auditor, and the flight
   recorder: help edges stay a DAG under real concurrent load, audited
   own-step accounting survives the trace-file round trip, tracing is
   observably free (results byte-identical on and off), injected bound
   violations are caught, the audit fails closed (no bound, nothing to
   audit), and the JSONL post-mortem parses. *)

open Wfs_runtime
open Wfs_spec
module Causal = Wfs_obs.Causal
module Profile = Wfs_obs.Profile
module Json = Wfs_obs.Json

(* Every test leaves the global recorder disabled and empty, whatever
   happens — the rest of the suite runs in the same process. *)
let with_tracing ?(sample = 1) f =
  Causal.enable ~sample ();
  Fun.protect
    ~finally:(fun () ->
      Causal.disable ();
      Causal.reset ())
    f

let audited_load ?(clients = 3) ?(ops = 60) ?(seed = 11) ?(canary = 4) () =
  let r =
    Service.Load.run ~seed ~window:8 ~spec:(Zoo.queue ()) ~canary ~clients
      ~ops_per_client:ops ()
  in
  Alcotest.(check bool)
    (Fmt.str "traced load passed: %a" Service.Load.pp_report r)
    true
    (Service.Load.passed r);
  Causal.Audit.of_recording ()

(* --- help edges form a DAG (qcheck over real runs) --- *)

let prop_help_edges_dag =
  QCheck2.Test.make ~name:"help edges form a DAG under traced load" ~count:6
    QCheck2.Gen.(triple (int_range 2 3) (int_range 20 60) (int_range 1 1000))
    (fun (clients, ops, seed) ->
      with_tracing (fun () ->
          let r = audited_load ~clients ~ops ~seed () in
          r.Causal.Audit.dag_ok && r.Causal.Audit.violations = []))

(* --- own-step accounting: live recording = trace-file round trip --- *)

(* The live recording written with [Profile.write] and parsed back. *)
let written_trace () =
  let path = Filename.temp_file "wfs-causal" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile.write path;
      Json.of_string (In_channel.with_open_bin path In_channel.input_all))

let test_roundtrip_accounting () =
  with_tracing (fun () ->
      let live = audited_load () in
      Alcotest.(check bool)
        "some invocations completed" true
        (live.Causal.Audit.completed > 0);
      Alcotest.(check bool)
        "canary produced help edges" true
        (live.Causal.Audit.edges_kept > 0);
      Alcotest.(check bool)
        "own steps within the audited bound" true
        (live.Causal.Audit.max_own_steps <= Causal.step_bound ~n:3);
      let parsed = Causal.Audit.of_trace_json (written_trace ()) in
      Alcotest.(check int)
        "completed survives the round trip" live.Causal.Audit.completed
        parsed.Causal.Audit.completed;
      Alcotest.(check int)
        "max own steps survives the round trip"
        live.Causal.Audit.max_own_steps parsed.Causal.Audit.max_own_steps;
      Alcotest.(check int)
        "help edges survive the round trip" live.Causal.Audit.edges_kept
        parsed.Causal.Audit.edges_kept;
      Alcotest.(check bool)
        "round-tripped audit still ok" true (Causal.Audit.ok parsed))

(* --- tracing on/off leaves service results byte-identical --- *)

let result_sequence ~traced () =
  let go () =
    let h = Service.make_handle ~window:8 ~canary:3 ~n:1 (Zoo.queue ()) in
    List.init 60 (fun i ->
        let op =
          if i mod 3 < 2 then Queues.enq (Value.int i) else Queues.deq
        in
        h.Service.apply ~pid:0 op)
  in
  if traced then with_tracing go else go ()

let test_tracing_transparent () =
  let off = result_sequence ~traced:false () in
  let on = result_sequence ~traced:true () in
  Alcotest.(check bool)
    "result sequences identical with tracing on and off" true
    (List.equal Value.equal off on);
  (* and a full checked load passes identically both ways *)
  let run () =
    Service.Load.run ~seed:5 ~window:8 ~spec:(Collections.counter ())
      ~canary:4 ~clients:2 ~ops_per_client:50 ()
  in
  let r_off = run () in
  let r_on = with_tracing run in
  Alcotest.(check bool) "untraced load passed" true (Service.Load.passed r_off);
  Alcotest.(check bool) "traced load passed" true (Service.Load.passed r_on);
  Alcotest.(check int)
    "same ops threaded" r_off.Service.Load.log_length
    r_on.Service.Load.log_length

(* --- injected bound violation is caught --- *)

let test_injected_violation () =
  with_tracing (fun () ->
      Causal.meta ~obj:"toy" ~n:1 ~bound:2;
      let tr = Causal.issue () in
      Causal.invoke ~obj:"toy" ~trace:tr ~pid:0;
      Causal.complete ~obj:"toy" ~trace:tr ~pos:0 ~own_steps:5 ~help_rounds:0;
      let r = Causal.Audit.of_recording () in
      Alcotest.(check bool) "audit fails" false (Causal.Audit.ok r);
      match r.Causal.Audit.violations with
      | [ v ] ->
          Alcotest.(check int) "steps reported" 5 v.Causal.Audit.v_steps;
          Alcotest.(check int) "bound reported" 2 v.Causal.Audit.v_bound
      | vs ->
          Alcotest.failf "expected exactly one violation, got %d"
            (List.length vs))

(* --- the audit fails closed --- *)

(* Without the per-object registrations there is no bound to check
   the (doctored, far out of bound) own-step counts against: every
   completion is counted as unbounded and the audit fails. *)
let test_meta_stripped_fails () =
  with_tracing (fun () ->
      ignore (audited_load ~clients:2 ~ops:30 ());
      let _, evs = Profile.causal_snapshot () in
      let doctor (e : Profile.event) = if e.kind = Complete then { e with b = 999 } else e in
      let r = Causal.Audit.of_events ([], List.map doctor evs) in
      Alcotest.(check bool) "some completions" true (r.Causal.Audit.completed > 0);
      Alcotest.(check int)
        "every completion unbounded" r.Causal.Audit.completed r.Causal.Audit.unbounded;
      Alcotest.(check bool) "audit fails" false (Causal.Audit.ok r))

let test_nothing_to_audit () =
  let empty = Causal.Audit.of_events ([], []) in
  Alcotest.(check int) "no completions" 0 empty.Causal.Audit.completed;
  Alcotest.(check bool) "empty recording fails" false (Causal.Audit.ok empty);
  (* a span-only profile carries no causal record at all *)
  Profile.enable ();
  Profile.span "work" (fun () -> ());
  Profile.disable ();
  let j = Profile.to_json () in
  Profile.reset ();
  Alcotest.(check bool)
    "span-only trace fails" false
    (Causal.Audit.ok (Causal.Audit.of_trace_json j))

let test_sample_below_one_rejected () =
  List.iter
    (fun sample ->
      (match Causal.enable ~sample () with
      | () -> Alcotest.failf "sample %d accepted" sample
      | exception Invalid_argument _ -> ());
      Alcotest.(check bool) "still disabled" false (Causal.enabled ()))
    [ 0; -3 ];
  with_tracing ~sample:1 (fun () ->
      Alcotest.(check int) "sample 1 traces everything" 1 (Causal.sample_every ()))

(* --- flight recorder dump: one parseable JSON object per line --- *)

let test_flight_recorder_dump () =
  with_tracing (fun () ->
      ignore (audited_load ~clients:2 ~ops:30 ());
      let path = Filename.temp_file "wfs-flight" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let written = Profile.dump_jsonl path in
          Alcotest.(check bool) "dump non-empty" true (written > 0);
          let ic = open_in path in
          let lines = ref 0 in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              try
                while true do
                  let line = input_line ic in
                  incr lines;
                  match Wfs_obs.Json.of_string line with
                  | Wfs_obs.Json.Obj _ -> ()
                  | _ -> Alcotest.failf "line %d is not a JSON object" !lines
                done
              with End_of_file -> ());
          Alcotest.(check int) "returned count = lines written" written !lines))

(* --- the audited bound constant --- *)

let test_step_bound () =
  Alcotest.(check int) "2n+8 at n=4" 16 (Causal.step_bound ~n:4);
  Alcotest.(check int) "2n+8 at n=1" 10 (Causal.step_bound ~n:1)

let suite =
  [
    ( "causal",
      [
        Alcotest.test_case "step bound" `Quick test_step_bound;
        Alcotest.test_case "roundtrip accounting" `Quick
          test_roundtrip_accounting;
        Alcotest.test_case "tracing transparent" `Quick
          test_tracing_transparent;
        Alcotest.test_case "injected violation" `Quick test_injected_violation;
        Alcotest.test_case "meta-stripped trace fails" `Quick
          test_meta_stripped_fails;
        Alcotest.test_case "nothing to audit" `Quick test_nothing_to_audit;
        Alcotest.test_case "sample below 1 rejected" `Quick
          test_sample_below_one_rejected;
        Alcotest.test_case "flight recorder dump" `Quick
          test_flight_recorder_dump;
        QCheck_alcotest.to_alcotest prop_help_edges_dag;
      ] );
  ]
