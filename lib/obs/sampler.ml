(* Periodic registry sampling from a dedicated domain.

   The sampler domain wakes every [interval_ms], takes a lock-free
   [Metrics.dump] and publishes it by atomically swapping a fresh
   immutable ring (newest-first list, capacity-truncated) into an
   [Atomic.t].  Readers — the HTTP endpoint, [ring] and [latest] —
   just [Atomic.get] the ring: no locks, no tearing, and a reader
   holding an old ring keeps a consistent (if stale) view.

   Consumers, all optional:
   - a file sink rewrites [out_file] atomically (write tmp + rename)
     with the OpenMetrics exposition of the newest snapshot;
   - a minimal blocking HTTP server (stdlib [Unix] only) serves the
     newest exposition at GET /metrics from its own domain;
   - an [on_sample] hook sees each (previous, newest) snapshot pair on
     the sampler domain — the `--progress` heartbeat is one. *)

type snap = { at_ns : int; values : (string * Metrics.dumped) list }

type hook = final:bool -> prev:snap -> cur:snap -> unit

(* everything both domains and the API need; the domain handles live in
   the outer [t] so [core] can be built before spawning *)
type core = {
  registry : Metrics.registry option;
  interval_ms : int;
  capacity : int;
  ring : snap list Atomic.t;  (* newest first *)
  stopping : bool Atomic.t;
  wake : Unix.file_descr * Unix.file_descr;
      (* pipe: [stop] writes a byte to cut the sampler's wait short *)
  out_file : string option;
  on_sample : hook option;
}

type t = {
  core : core;
  sampler_domain : unit Domain.t;
  http : (Unix.file_descr * unit Domain.t) option;
}

let take_snap registry =
  { at_ns = Clock.now_ns (); values = Metrics.dump ?registry () }

let push_snap core snap =
  let rec truncate n = function
    | [] -> []
    | _ when n = 0 -> []
    | s :: rest -> s :: truncate (n - 1) rest
  in
  (* single writer: a plain read-modify-set is race-free *)
  let old = Atomic.get core.ring in
  Atomic.set core.ring (snap :: truncate (core.capacity - 1) old)

let write_file_atomically path contents =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      output_string oc contents;
      flush oc);
  (* rename is atomic on POSIX: readers see the old file or the new
     one, never a partial write *)
  Unix.rename tmp path

let sink core snap =
  match core.out_file with
  | None -> ()
  | Some path -> (
      try write_file_atomically path (Export.of_dump snap.values)
      with Sys_error _ | Unix.Unix_error _ -> ())

let sample_once ?(final = false) core =
  let prev = Atomic.get core.ring in
  let snap = take_snap core.registry in
  push_snap core snap;
  sink core snap;
  match (core.on_sample, prev) with
  | Some hook, p :: _ -> hook ~final ~prev:p ~cur:snap
  | _ -> ()

let sampler_main core () =
  (* wait one interval, or until [stop] makes the pipe readable *)
  let interval_s = float_of_int core.interval_ms /. 1000. in
  while not (Atomic.get core.stopping) do
    (try ignore (Unix.select [ fst core.wake ] [] [] interval_s)
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if not (Atomic.get core.stopping) then sample_once core
  done

(* --- HTTP endpoint --- *)

(* Response framing is a pure function of the body so the tests can
   check it byte-for-byte: an explicit Content-Length (the exposition
   contains no length hint of its own) plus Connection: close tells
   curl/Prometheus exactly where the body ends and that no keep-alive
   follows — the two things a scraper needs to not hang. *)
let http_response_of_body body =
  Printf.sprintf
    "HTTP/1.1 200 OK\r\n\
     Content-Type: application/openmetrics-text; version=1.0.0; \
     charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body

let http_response core =
  http_response_of_body
    (match Atomic.get core.ring with
    | snap :: _ -> Export.of_dump snap.values
    | [] -> Export.of_dump (take_snap core.registry).values)

(* a request is complete once the header block terminator arrives (this
   endpoint only ever serves bodyless GETs) *)
let request_complete req =
  let n = String.length req in
  let rec go i =
    i + 4 <= n && (String.sub req i 4 = "\r\n\r\n" || go (i + 1))
  in
  go 0

let serve_client core client =
  Fun.protect
    ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
    (fun () ->
      (* drain the request up to the header terminator before replying:
         responding while the peer is still sending — then closing —
         can turn the close into a RST that discards our response
         mid-flight on the client side *)
      let buf = Bytes.create 4096 in
      let got = Buffer.create 256 in
      let rec slurp () =
        if
          (not (request_complete (Buffer.contents got)))
          && Buffer.length got < 65536
        then
          match Unix.read client buf 0 (Bytes.length buf) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes got buf 0 n;
              slurp ()
          | exception Unix.Unix_error _ -> ()
      in
      slurp ();
      let resp = http_response core in
      let n = String.length resp in
      let sent = ref 0 in
      (try
         while !sent < n do
           sent := !sent + Unix.write_substring client resp !sent (n - !sent)
         done
       with Unix.Unix_error _ -> ());
      (* half-close the send side so the client gets a clean FIN (and
         therefore end-of-body) before the descriptor goes away *)
      try Unix.shutdown client Unix.SHUTDOWN_SEND
      with Unix.Unix_error _ -> ())

let http_main core listen_fd () =
  let continue = ref true in
  while !continue do
    match Unix.accept listen_fd with
    | client, _ ->
        if Atomic.get core.stopping then begin
          (try Unix.close client with Unix.Unix_error _ -> ());
          continue := false
        end
        else serve_client core client
    | exception Unix.Unix_error _ ->
        (* [stop] closed the listen socket *)
        continue := false
  done

let listen_on port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 8;
  fd

(* --- heartbeat ---

   The `--progress` line, built from two snapshots alone: every engine
   feeds [explorer.states] (the solver adds its schedule nodes) and the
   load harness feeds [service.ops], so the line is right for any of
   them, and the post-run snapshot makes the final count exact. *)

let int_value snap name =
  match List.assoc_opt name snap.values with
  | Some (Metrics.D_counter v | Metrics.D_gauge v) -> v
  | _ -> 0

type beat = {
  what : string;  (* "states", or "ops" once [service.ops] moved *)
  count : int;
  rate : float;
  frontier : int;
  pruned : int;
  elapsed : float;
}

let beat ~t0_ns ~final ~prev ~cur =
  let what, counter =
    if int_value cur "service.ops" > 0 then ("ops", "service.ops")
    else ("states", "explorer.states")
  in
  let count = int_value cur counter in
  let secs ns = float_of_int ns /. 1e9 in
  let elapsed = secs (cur.at_ns - t0_ns) in
  (* per-interval rate while running; the whole run's on the final line *)
  let num, dt =
    if final then (count, elapsed)
    else (count - int_value prev counter, secs (cur.at_ns - prev.at_ns))
  in
  {
    what;
    count;
    rate = (if dt > 0. then float_of_int num /. dt else 0.);
    frontier = int_value cur "explorer.frontier";
    pruned =
      int_value cur "explorer.por.pruned" + int_value cur "solver.cutoff.sleep";
    elapsed;
  }

let line ~label ~crashes ~final b =
  Printf.sprintf "[wfs %s] %s=%d %s %s/s%s%s elapsed=%.1fs%s%s" label b.what
    b.count (Units.si b.rate) b.what
    (if final || b.what = "ops" then ""
     else Printf.sprintf " frontier=%d" b.frontier)
    (if b.pruned > 0 then Printf.sprintf " pruned=%d" b.pruned else "")
    b.elapsed
    (if crashes > 0 then Printf.sprintf " crashes<=%d" crashes else "")
    (if final then " done" else "")

let heartbeat ~label ~crashes ~t0_ns ~final ~prev ~cur =
  line ~label ~crashes ~final (beat ~t0_ns ~final ~prev ~cur)

let progress ~label ~crashes () =
  let t0_ns = Clock.now_ns () in
  fun ~final ~prev ~cur ->
    let b = beat ~t0_ns ~final ~prev ~cur in
    prerr_endline (line ~label ~crashes ~final b);
    Profile.counter ("progress." ^ b.what) [ (b.what, float_of_int b.count) ];
    Profile.counter "progress.rate" [ (b.what ^ "_per_s", b.rate) ];
    if b.pruned > 0 then
      Profile.counter "progress.pruned" [ ("edges", float_of_int b.pruned) ]

(* --- lifecycle --- *)

let start ?registry ?(interval_ms = 1000) ?(capacity = 120) ?out_file
    ?port ?on_sample () =
  if interval_ms <= 0 then invalid_arg "Sampler.start: interval_ms <= 0";
  if capacity <= 0 then invalid_arg "Sampler.start: capacity <= 0";
  (match port with
  | Some p when p < 0 || p > 65535 ->
      invalid_arg (Printf.sprintf "Sampler.start: port %d outside 0-65535" p)
  | _ -> ());
  (* bind first: a port that cannot be bound raises before the wake
     pipe exists *)
  let listen_fd = Option.map listen_on port in
  let core =
    {
      registry;
      interval_ms;
      capacity;
      ring = Atomic.make [];
      stopping = Atomic.make false;
      wake = Unix.pipe ~cloexec:true ();
      out_file;
      on_sample;
    }
  in
  (* seed the ring so the endpoint and `wfs top` have a baseline before
     the first interval elapses *)
  sample_once core;
  let http =
    Option.map (fun fd -> (fd, Domain.spawn (http_main core fd))) listen_fd
  in
  { core; sampler_domain = Domain.spawn (sampler_main core); http }

let ring t = Atomic.get t.core.ring

let latest t =
  match Atomic.get t.core.ring with s :: _ -> Some s | [] -> None

let stop t =
  Atomic.set t.core.stopping true;
  let wake_r, wake_w = t.core.wake in
  ignore (Unix.write_substring wake_w "x" 0 1);
  (match t.http with
  | Some (fd, _) ->
      (* shutdown BEFORE close: closing a listening socket from another
         thread does not wake a blocked accept(2) on Linux — the join
         below would deadlock.  shutdown makes the pending (and any
         future) accept fail immediately. *)
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  Domain.join t.sampler_domain;
  Unix.close wake_r;
  Unix.close wake_w;
  (match t.http with Some (_, d) -> Domain.join d | None -> ());
  (* final sample so short runs still leave complete end-of-run values
     in the ring, the file sink and the hook *)
  sample_once ~final:true t.core
