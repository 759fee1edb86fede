(* Tests for the OpenMetrics exposition (Wfs_obs.Export), the sampler
   ring, hook and heartbeat line (Wfs_obs.Sampler), and the humanized
   units (Wfs_obs.Units).

   Everything runs against private registries so the process-wide
   default registry (exercised concurrently by other suites) never
   perturbs a value under test. *)

module Metrics = Wfs_obs.Metrics
module Export = Wfs_obs.Export
module Sampler = Wfs_obs.Sampler
module Units = Wfs_obs.Units

(* --- name and label encoding --- *)

let test_name_mapping () =
  Alcotest.(check string)
    "dots become underscores" "wfs_explorer_states"
    (Export.family_of_registry_name "explorer.states");
  Alcotest.(check string)
    "hostile characters sanitized" "wfs_pool_shard_job_ns_p99"
    (Export.family_of_registry_name "pool.shard/job-ns p99");
  Alcotest.(check string)
    "colons survive (OpenMetrics allows them)" "wfs_a:b"
    (Export.family_of_registry_name "a:b")

let test_label_escaping () =
  let cases =
    [ "plain"; "with \"quotes\""; "back\\slash"; "new\nline"; "\\"; "a\\" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "round trip %S" s)
        s
        (Export.unescape_label_value (Export.escape_label_value s)))
    cases;
  Alcotest.(check string)
    "escape is exposition-safe" "a\\\\b\\\"c\\nd"
    (Export.escape_label_value "a\\b\"c\nd")

let test_split_labels () =
  Alcotest.(check (pair string (list (pair string string))))
    "labeled name splits" ("pool.shard.states", [ ("shard", "3") ])
    (Export.split_labels "pool.shard.states{shard=3}");
  Alcotest.(check (pair string (list (pair string string))))
    "multiple labels" ("x", [ ("a", "1"); ("b", "2") ])
    (Export.split_labels "x{a=1,b=2}");
  Alcotest.(check (pair string (list (pair string string))))
    "unlabeled name untouched" ("explorer.states", [])
    (Export.split_labels "explorer.states")

(* --- exposition shape --- *)

let test_counter_total_suffix_and_eof () =
  let r = Metrics.create () in
  Metrics.Counter.add (Metrics.Counter.make ~registry:r "a.count") 7;
  Metrics.Gauge.set (Metrics.Gauge.make ~registry:r "a.level") 3;
  let text = Export.to_openmetrics ~registry:r () in
  let has needle =
    let n = String.length text and m = String.length needle in
    let rec go i =
      i + m <= n && (String.sub text i m = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "TYPE counter line" true
    (has "# TYPE wfs_a_count counter\n");
  Alcotest.(check bool) "counter sample gets _total" true
    (has "wfs_a_count_total 7\n");
  Alcotest.(check bool) "gauge sample has no suffix" true
    (has "wfs_a_level 3\n");
  Alcotest.(check bool) "ends with # EOF" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n")

let test_deterministic_ordering () =
  (* same instruments registered in opposite orders must serialize
     identically: the dump is name-sorted, families appear in sorted
     first-appearance order *)
  let build names =
    let r = Metrics.create () in
    List.iter
      (fun n -> Metrics.Counter.add (Metrics.Counter.make ~registry:r n) 1)
      names;
    Export.to_openmetrics ~registry:r ()
  in
  let names = [ "z.last"; "a.first"; "m.mid{shard=1}"; "m.mid{shard=0}" ] in
  Alcotest.(check string)
    "registration order invisible"
    (build names)
    (build (List.rev names))

let test_kind_clash_dropped () =
  (* "a.b" and "a_b" collide on the family name; the first kind wins and
     the stray entry is dropped so the exposition stays parseable *)
  let r = Metrics.create () in
  Metrics.Counter.add (Metrics.Counter.make ~registry:r "a.b") 5;
  Metrics.Gauge.set (Metrics.Gauge.make ~registry:r "a_b") 9;
  let text = Export.to_openmetrics ~registry:r () in
  let samples = Export.parse text in
  Alcotest.(check (option (float 0.0)))
    "winning kind present" (Some 5.0)
    (Export.find samples "wfs_a_b_total" []);
  Alcotest.(check int) "stray entry dropped" 1 (List.length samples)

(* --- histogram expansion --- *)

let test_histogram_cumulative_buckets () =
  let r = Metrics.create () in
  let h = Metrics.Histogram.make ~registry:r "lat" in
  List.iter (Metrics.Histogram.observe h) [ 1; 1; 3; 100; 5_000 ];
  let samples = Export.parse (Export.to_openmetrics ~registry:r ()) in
  let buckets =
    List.filter_map
      (fun s ->
        if s.Export.s_name = "wfs_lat_bucket" then
          match List.assoc_opt "le" s.Export.s_labels with
          | Some "+Inf" -> Some (infinity, s.Export.s_value)
          | Some le -> Some (float_of_string le, s.Export.s_value)
          | None -> None
        else None)
      samples
  in
  Alcotest.(check bool) "has buckets" true (List.length buckets >= 2);
  (* le strictly increasing, cumulative counts non-decreasing *)
  let rec monotone = function
    | (le1, c1) :: ((le2, c2) :: _ as rest) ->
        le1 < le2 && c1 <= c2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "le and counts monotone" true (monotone buckets);
  let count = Export.find samples "wfs_lat_count" [] in
  let inf = List.assoc_opt infinity (List.map (fun (a, b) -> (a, b)) buckets) in
  Alcotest.(check (option (float 0.0))) "+Inf bucket equals _count" count inf;
  Alcotest.(check (option (float 0.0)))
    "count is the number of observations" (Some 5.0) count;
  Alcotest.(check (option (float 0.0)))
    "sum matches" (Some (float_of_int (1 + 1 + 3 + 100 + 5_000)))
    (Export.find samples "wfs_lat_sum" [])

let test_empty_histogram () =
  let r = Metrics.create () in
  ignore (Metrics.Histogram.make ~registry:r "lat");
  let samples = Export.parse (Export.to_openmetrics ~registry:r ()) in
  Alcotest.(check (option (float 0.0)))
    "+Inf bucket present at zero" (Some 0.0)
    (Export.find samples "wfs_lat_bucket" [ ("le", "+Inf") ]);
  Alcotest.(check (option (float 0.0)))
    "zero count" (Some 0.0)
    (Export.find samples "wfs_lat_count" [])

(* --- round trip vs the JSON snapshot --- *)

let test_round_trip_matches_snapshot () =
  let r = Metrics.create () in
  Metrics.Counter.add (Metrics.Counter.make ~registry:r "c.plain") 42;
  Metrics.Counter.add
    (Metrics.Counter.make ~registry:r
       (Metrics.labeled "c.sharded" [ ("shard", "7") ]))
    13;
  Metrics.Gauge.set (Metrics.Gauge.make ~registry:r "g") (-4);
  Metrics.Fgauge.set (Metrics.Fgauge.make ~registry:r "f") 0.375;
  let h = Metrics.Histogram.make ~registry:r "h" in
  List.iter (Metrics.Histogram.observe h) [ 2; 9 ];
  let samples = Export.parse (Export.to_openmetrics ~registry:r ()) in
  (* every dumped value is recoverable from the parsed exposition *)
  List.iter
    (fun (name, dumped) ->
      let base, labels = Export.split_labels name in
      let fam = Export.family_of_registry_name base in
      match dumped with
      | Metrics.D_counter n ->
          Alcotest.(check (option (float 0.0)))
            name
            (Some (float_of_int n))
            (Export.find samples (fam ^ "_total") labels)
      | Metrics.D_gauge n ->
          Alcotest.(check (option (float 0.0)))
            name
            (Some (float_of_int n))
            (Export.find samples fam labels)
      | Metrics.D_fgauge f ->
          Alcotest.(check (option (float 1e-12)))
            name (Some f)
            (Export.find samples fam labels)
      | Metrics.D_histogram { d_count; d_sum; _ } ->
          Alcotest.(check (option (float 0.0)))
            (name ^ " count")
            (Some (float_of_int d_count))
            (Export.find samples (fam ^ "_count") labels);
          Alcotest.(check (option (float 0.0)))
            (name ^ " sum")
            (Some (float_of_int d_sum))
            (Export.find samples (fam ^ "_sum") labels))
    (Metrics.dump ~registry:r ())

let prop_label_value_survives_exposition =
  QCheck2.Test.make ~name:"arbitrary label values survive render+parse"
    ~count:200
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 20))
    (fun s ->
      (* values are arbitrary bytes; newline leans on the \n escape,
         everything else must pass through the quoted value untouched *)
      let text =
        "# TYPE wfs_m counter\nwfs_m_total{k=\""
        ^ Export.escape_label_value s
        ^ "\"} 3\n# EOF\n"
      in
      Export.find (Export.parse text) "wfs_m_total" [ ("k", s) ] = Some 3.0)

let prop_counter_value_round_trips =
  QCheck2.Test.make ~name:"counter values round-trip exactly" ~count:200
    QCheck2.Gen.(int_range 0 max_int)
    (fun n ->
      let r = Metrics.create () in
      Metrics.Counter.add (Metrics.Counter.make ~registry:r "n") n;
      let samples = Export.parse (Export.to_openmetrics ~registry:r ()) in
      match Export.find samples "wfs_n_total" [] with
      | Some f -> Float.to_int f = n || float_of_int n = f
      | None -> false)

(* --- sampler ring --- *)

let test_sampler_ring_and_file_sink () =
  let r = Metrics.create () in
  let c = Metrics.Counter.make ~registry:r "ticks" in
  let out = Filename.temp_file "wfs_metrics" ".prom" in
  let s =
    Sampler.start ~registry:r ~interval_ms:5 ~capacity:3 ~out_file:out ()
  in
  for _ = 1 to 10 do
    Metrics.Counter.add c 10;
    Unix.sleepf 0.005
  done;
  Sampler.stop s;
  let ring = Sampler.ring s in
  Alcotest.(check bool) "ring non-empty" true (ring <> []);
  Alcotest.(check bool) "capacity respected" true (List.length ring <= 3);
  let rec newest_first = function
    | a :: (b :: _ as rest) ->
        a.Sampler.at_ns >= b.Sampler.at_ns && newest_first rest
    | _ -> true
  in
  Alcotest.(check bool) "newest first" true (newest_first ring);
  (* stop takes a final sample, so the newest snap has the final value *)
  (match Sampler.latest s with
  | Some snap ->
      Alcotest.(check bool) "final value sampled" true
        (List.assoc_opt "ticks" snap.Sampler.values
        = Some (Metrics.D_counter 100))
  | None -> Alcotest.fail "no snapshot");
  (* the file sink holds a complete, parseable exposition of the end *)
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  Alcotest.(check (option (float 0.0)))
    "file sink has final value" (Some 100.0)
    (Export.find (Export.parse text) "wfs_ticks_total" [])

(* --- sampler hook ---

   The hook sees consecutive (prev, cur) pairs on the sampler domain,
   then exactly one final pair from [stop], and nothing afterwards. *)

let test_sampler_hook_pairs () =
  let r = Metrics.create () in
  let c = Metrics.Counter.make ~registry:r "ticks" in
  let calls = ref [] in
  let hook ~final ~prev ~cur = calls := (final, prev, cur) :: !calls in
  let s = Sampler.start ~registry:r ~interval_ms:5 ~on_sample:hook () in
  for _ = 1 to 10 do
    Metrics.Counter.add c 10;
    Unix.sleepf 0.02
  done;
  Sampler.stop s;
  (* [stop] joined the sampler domain: [calls] is quiescent *)
  let seen = List.rev !calls in
  let n = List.length seen in
  Metrics.Counter.add c 1;
  Unix.sleepf 0.1;
  Alcotest.(check int) "no call after stop returns" n (List.length !calls);
  Alcotest.(check bool) "sampled while running, then a final call" true
    (n >= 2);
  Alcotest.(check (list bool))
    "only the last call is final"
    (List.init n (fun i -> i = n - 1))
    (List.map (fun (f, _, _) -> f) seen);
  let rec consecutive = function
    | (_, _, cur) :: ((_, prev, _) :: _ as rest) ->
        prev == cur && consecutive rest
    | _ -> true
  in
  Alcotest.(check bool) "each prev is the previous call's cur" true
    (consecutive seen);
  List.iter
    (fun (_, prev, cur) ->
      Alcotest.(check bool) "prev not newer than cur" true
        (prev.Sampler.at_ns <= cur.Sampler.at_ns))
    seen;
  (match List.rev seen with
  | (_, _, cur) :: _ ->
      Alcotest.(check bool) "final pair carries the end value" true
        (List.assoc_opt "ticks" cur.Sampler.values
        = Some (Metrics.D_counter 100))
  | [] -> ());
  Alcotest.(check bool) "final sample is the ring's newest" true
    (match (List.rev seen, Sampler.latest s) with
    | (_, _, cur) :: _, Some latest -> cur == latest
    | _ -> false)

(* [stop] cuts the sampler's wait short: with a 60 s interval it still
   returns at once, and the hook still gets the final sample.  The
   25 ms bound fails a sampler that only polls its stop flag between
   50 ms sleeps; taking the fastest of three cycles keeps one slow host
   moment from failing it. *)
let test_sampler_stop_prompt () =
  let cycle () =
    let r = Metrics.create () in
    let c = Metrics.Counter.make ~registry:r "ticks" in
    let finals = ref [] in
    let hook ~final ~prev:_ ~cur = if final then finals := cur :: !finals in
    let s = Sampler.start ~registry:r ~interval_ms:60_000 ~on_sample:hook () in
    Metrics.Counter.add c 7;
    (* let the sampler domain settle into its wait *)
    Unix.sleepf 0.01;
    let t0 = Unix.gettimeofday () in
    Sampler.stop s;
    let took = Unix.gettimeofday () -. t0 in
    (match !finals with
    | [ cur ] ->
        Alcotest.(check bool) "final sample carries the end value" true
          (List.assoc_opt "ticks" cur.Sampler.values
          = Some (Metrics.D_counter 7))
    | l -> Alcotest.failf "expected one final sample, got %d" (List.length l));
    took
  in
  let fastest = List.fold_left min infinity (List.init 3 (fun _ -> cycle ())) in
  Alcotest.(check bool)
    (Printf.sprintf "stop returned promptly (fastest %.4fs)" fastest)
    true (fastest < 0.025)

let test_sampler_port_range () =
  let r = Metrics.create () in
  List.iter
    (fun port ->
      match Sampler.start ~registry:r ~port () with
      | exception Invalid_argument _ -> ()
      | s ->
          Sampler.stop s;
          Alcotest.failf "port %d accepted" port)
    [ -1; 65536; 99999 ]

(* --- heartbeat line ---

   Fed a registry holding only what the solver writes: its schedule
   nodes land in [explorer.states], its sleep cutoffs in
   [solver.cutoff.sleep]; nothing sets [explorer.frontier]. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_heartbeat_solver_registry () =
  let r = Metrics.create () in
  let states = Metrics.Counter.make ~registry:r "explorer.states" in
  let sleep = Metrics.Counter.make ~registry:r "solver.cutoff.sleep" in
  let snap at_ns =
    { Sampler.at_ns; values = Metrics.dump ~registry:r () }
  in
  let t0_ns = 1_000_000_000 in
  Metrics.Counter.add states 8192;
  let prev = snap (t0_ns + 1_000_000_000) in
  Metrics.Counter.add states 16384;
  Metrics.Counter.add sleep 42;
  let cur = snap (t0_ns + 3_000_000_000) in
  let line =
    Sampler.heartbeat ~label:"census" ~crashes:0 ~t0_ns ~final:false ~prev
      ~cur
  in
  Alcotest.(check string)
    "running line: total, per-interval rate, frontier, pruned"
    "[wfs census] states=24576 8.2k states/s frontier=0 pruned=42 \
     elapsed=3.0s"
    line;
  let final =
    Sampler.heartbeat ~label:"verify cas n=3" ~crashes:1 ~t0_ns ~final:true
      ~prev ~cur
  in
  Alcotest.(check string)
    "final line: whole-run rate, crash budget, done"
    "[wfs verify cas n=3] states=24576 8.2k states/s pruned=42 \
     elapsed=3.0s crashes<=1 done"
    final

(* The final line reads the post-run snapshot, so a count that is not
   a multiple of any flush batch still comes out exact. *)
let test_heartbeat_final_count_exact () =
  let r = Metrics.create () in
  let states = Metrics.Counter.make ~registry:r "explorer.states" in
  let last = ref "" in
  let hook ~final ~prev ~cur =
    if final then
      last :=
        Sampler.heartbeat ~label:"t" ~crashes:0 ~t0_ns:0 ~final ~prev ~cur
  in
  let s = Sampler.start ~registry:r ~interval_ms:5 ~on_sample:hook () in
  Metrics.Counter.add states 2048;
  Unix.sleepf 0.06;
  Metrics.Counter.add states 665;
  Sampler.stop s;
  Alcotest.(check bool)
    (Printf.sprintf "final line %S has states=2713" !last)
    true
    (contains !last "states=2713 " && contains !last " done")

(* --- HTTP response framing ---

   Scrapers hang on /metrics for exactly two reasons: no Content-Length
   (the reader waits for EOF that keep-alive never sends) or a response
   fired before the request finished arriving (the close can turn into
   a RST that discards the body).  The framing is a pure function, so
   check it byte-for-byte. *)

let test_http_response_framing () =
  let body = "# TYPE wfs_ops counter\nwfs_ops_total 42\n# EOF\n" in
  let resp = Sampler.http_response_of_body body in
  Alcotest.(check bool)
    "status line" true
    (String.length resp > 17 && String.sub resp 0 17 = "HTTP/1.1 200 OK\r\n");
  let header_end =
    let rec find i =
      if i + 4 > String.length resp then Alcotest.fail "no CRLFCRLF"
      else if String.sub resp i 4 = "\r\n\r\n" then i
      else find (i + 1)
    in
    find 0
  in
  let headers = String.sub resp 0 header_end in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "explicit Content-Length" true
    (contains headers
       (Printf.sprintf "Content-Length: %d" (String.length body)));
  Alcotest.(check bool)
    "Connection: close" true
    (contains headers "Connection: close");
  Alcotest.(check string) "body verbatim after the blank line" body
    (String.sub resp (header_end + 4) (String.length resp - header_end - 4))

let test_http_request_complete () =
  Alcotest.(check bool)
    "bare GET line incomplete" false
    (Sampler.request_complete "GET /metrics HTTP/1.1\r\n");
  Alcotest.(check bool)
    "split terminator incomplete" false
    (Sampler.request_complete "GET /metrics HTTP/1.1\r\nHost: x\r\n\r");
  Alcotest.(check bool)
    "terminated request complete" true
    (Sampler.request_complete "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  Alcotest.(check bool)
    "terminator anywhere suffices" true
    (Sampler.request_complete "GET / HTTP/1.1\r\n\r\ntrailing");
  Alcotest.(check bool) "empty incomplete" false (Sampler.request_complete "")

(* and end-to-end once over a real socket: curl-style GET, one read to
   EOF, body length must equal the advertised Content-Length *)
let test_http_endpoint_round_trip () =
  let r = Metrics.create () in
  Metrics.Counter.add (Metrics.Counter.make ~registry:r "served") 7;
  let port = 18080 + (Unix.getpid () mod 1000) in
  match Sampler.start ~registry:r ~interval_ms:1000 ~port () with
  | exception Unix.Unix_error _ ->
      (* port collision on a busy CI box: framing is covered above *)
      ()
  | s ->
      Fun.protect
        ~finally:(fun () -> Sampler.stop s)
        (fun () ->
          let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close sock with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect sock
                (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              let req = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n" in
              ignore (Unix.write_substring sock req 0 (String.length req));
              let buf = Bytes.create 65536 in
              let got = Buffer.create 1024 in
              let rec drain () =
                match Unix.read sock buf 0 (Bytes.length buf) with
                | 0 -> ()
                | n ->
                    Buffer.add_subbytes got buf 0 n;
                    drain ()
              in
              drain ();
              let resp = Buffer.contents got in
              let body =
                let rec find i =
                  if i + 4 > String.length resp then
                    Alcotest.fail "no header terminator in response"
                  else if String.sub resp i 4 = "\r\n\r\n" then
                    String.sub resp (i + 4) (String.length resp - i - 4)
                  else find (i + 1)
                in
                find 0
              in
              Alcotest.(check string)
                "response framing matches the pure function"
                (Sampler.http_response_of_body body)
                resp;
              Alcotest.(check (option (float 0.0)))
                "body is the exposition" (Some 7.0)
                (Export.find (Export.parse body) "wfs_served_total" [])))

(* --- humanized units --- *)

let test_units () =
  Alcotest.(check string) "millions" "12.3M" (Units.si 12_300_000.);
  Alcotest.(check string) "hundreds of k" "123k" (Units.si 123_400.);
  Alcotest.(check string) "small integers bare" "999" (Units.si 999.);
  Alcotest.(check string) "giga" "1.2G" (Units.si 1_200_000_000.);
  Alcotest.(check string) "rate suffix" "2.5k/s" (Units.rate 2_500.);
  Alcotest.(check string) "nanoseconds" "842ns" (Units.ns 842);
  Alcotest.(check string) "microseconds" "1.5us" (Units.ns 1_500);
  Alcotest.(check string) "milliseconds" "12.0ms" (Units.ns 12_000_000);
  Alcotest.(check string) "seconds" "1.25s" (Units.ns 1_250_000_000);
  Alcotest.(check string) "percent" "12.3%" (Units.percent 0.123)

let suite =
  [
    ( "obs.export",
      [
        Alcotest.test_case "registry name -> family mapping" `Quick
          test_name_mapping;
        Alcotest.test_case "label value escaping round trip" `Quick
          test_label_escaping;
        Alcotest.test_case "labeled registry names split" `Quick
          test_split_labels;
        Alcotest.test_case "counter _total suffix and # EOF" `Quick
          test_counter_total_suffix_and_eof;
        Alcotest.test_case "deterministic ordering" `Quick
          test_deterministic_ordering;
        Alcotest.test_case "family kind clash drops the stray" `Quick
          test_kind_clash_dropped;
        Alcotest.test_case "histogram buckets cumulative, +Inf = count"
          `Quick test_histogram_cumulative_buckets;
        Alcotest.test_case "empty histogram still well-formed" `Quick
          test_empty_histogram;
        Alcotest.test_case "parse recovers every dumped value" `Quick
          test_round_trip_matches_snapshot;
        Alcotest.test_case "sampler rejects ports outside 0-65535" `Quick
          test_sampler_port_range;
        QCheck_alcotest.to_alcotest prop_label_value_survives_exposition;
        QCheck_alcotest.to_alcotest prop_counter_value_round_trips;
      ] );
    ( "obs.sampler",
      [
        Alcotest.test_case "ring capacity, order, final sample, file sink"
          `Quick test_sampler_ring_and_file_sink;
        Alcotest.test_case "hook: consecutive pairs, one final call" `Quick
          test_sampler_hook_pairs;
        Alcotest.test_case "stop cuts a long interval short" `Quick
          test_sampler_stop_prompt;
        Alcotest.test_case "heartbeat line from a solver-only registry"
          `Quick test_heartbeat_solver_registry;
        Alcotest.test_case "heartbeat final count is exact" `Quick
          test_heartbeat_final_count_exact;
        Alcotest.test_case "HTTP response framing" `Quick
          test_http_response_framing;
        Alcotest.test_case "HTTP request termination" `Quick
          test_http_request_complete;
        Alcotest.test_case "HTTP endpoint round trip" `Quick
          test_http_endpoint_round_trip;
      ] );
    ( "obs.units",
      [ Alcotest.test_case "humanized magnitudes" `Quick test_units ] );
  ]
