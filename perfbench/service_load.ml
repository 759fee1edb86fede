(* The universality-side workloads: the §4 construction served as a
   long-lived object ([Runtime.Service.make_handle]) and driven by two
   closed-loop client domains.  Each client issues its next operation
   as soon as the previous one returns; its whole operation stream is
   generated from the seed during set-up, so the timed loop only calls
   [apply_pos] and stamps the clock. *)

open Wfs
module W = Workload
module Service = Runtime.Service

let clients = 2

type mix = {
  spec : Object_spec.t;
  ops_per_client : int;  (** per pass *)
  draw : Random.State.t -> Op.t;
}

(* 64 keys, all present from the start so every [apply] walks a
   64-entry map; 90% get, 10% put. *)
let kv_mix =
  let keys = Array.init 64 (fun i -> Value.str (Printf.sprintf "k%02d" i)) in
  let spec =
    Collections.kv_map
      ~initial:(Array.to_list (Array.map (fun k -> (k, Value.int 0)) keys))
      ~keys:(Array.to_list keys) ~values:[ Value.int 0 ] ()
  in
  {
    spec;
    ops_per_client = 100_000;
    draw =
      (fun rng ->
        let k = keys.(Random.State.int rng (Array.length keys)) in
        if Random.State.int rng 10 = 0 then
          Collections.put k (Value.int (Random.State.int rng 1000))
        else Collections.get k);
  }

(* {1 Traced specs}

   In traced passes the spec is rewrapped with [Object_spec.make] so
   each [apply] — wherever the construction calls it: the caller's own
   fill, a helper's, or a snapshot replay — records a child span of the
   operation running on that domain. *)

type apply_buf = {
  mutable starts : int array;
  mutable ends : int array;
  mutable parents : int array;  (** index of the enclosing operation *)
  mutable len : int;
  mutable cur : int;
}

let new_buf () =
  { starts = Array.make 1024 0; ends = Array.make 1024 0; parents = Array.make 1024 0; len = 0; cur = 0 }

let buf_key = Domain.DLS.new_key new_buf

let push b t0 t1 =
  if b.len = Array.length b.starts then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    b.starts <- grow b.starts;
    b.ends <- grow b.ends;
    b.parents <- grow b.parents
  end;
  b.starts.(b.len) <- t0;
  b.ends.(b.len) <- t1;
  b.parents.(b.len) <- b.cur;
  b.len <- b.len + 1

let traced_spec (spec : Object_spec.t) =
  Object_spec.make ~name:spec.name ~init:spec.init ~menu:spec.menu
    ~apply:(fun s o ->
      let b = Domain.DLS.get buf_key in
      let t0 = Stats.now_ns () in
      let r = Object_spec.apply spec s o in
      push b t0 (Stats.now_ns ());
      r)

(* {1 Clients} *)

type client_out = {
  res : Value.t array;
  pos : int array;
  lat : int array;
  op_start : int array;  (** traced passes only *)
  start : int;
  stop : int;
  exns : int;
  words : float;
  heap_max : int;  (** client 0 only: sampled major-heap size *)
  retained_max : int;
  buf : apply_buf;
}

let retained_period = 128

(* Client 0 samples the major-heap size this often: the process-wide
   high-water mark only grows, so it cannot give one pass's peak. *)
let heap_period = 1024

let heap_words () = (Gc.quick_stat ()).heap_words

let client ~traced (h : Service.handle) ops pid =
  let n = Array.length ops in
  let res = Array.make n Value.unit
  and pos = Array.make n (-1)
  and lat = Array.make n 0
  and op_start = if traced then Array.make n 0 else [||] in
  let exns = ref 0 and retained_max = ref 0 and heap_max = ref 0 in
  let sample_heap = pid = 0 in
  let buf = new_buf () in
  if traced then Domain.DLS.set buf_key buf;
  let w0 = Gc.minor_words () in
  let start = Stats.now_ns () in
  (* two copies of the loop, so the untraced one carries no tracing work *)
  if traced then
    for i = 0 to n - 1 do
      buf.cur <- i;
      let t0 = Stats.now_ns () in
      (match h.apply_pos ~pid ops.(i) with
      | r, p ->
          res.(i) <- r;
          pos.(i) <- p
      | exception _ -> incr exns);
      let t1 = Stats.now_ns () in
      op_start.(i) <- t0;
      lat.(i) <- t1 - t0;
      if i mod retained_period = 0 then retained_max := max !retained_max (h.retained ());
      if sample_heap && i land (heap_period - 1) = 0 then heap_max := max !heap_max (heap_words ())
    done
  else
    for i = 0 to n - 1 do
      let t0 = Stats.now_ns () in
      (match h.apply_pos ~pid ops.(i) with
      | r, p ->
          res.(i) <- r;
          pos.(i) <- p
      | exception _ -> incr exns);
      lat.(i) <- Stats.now_ns () - t0;
      if sample_heap && i land (heap_period - 1) = 0 then heap_max := max !heap_max (heap_words ())
    done;
  let stop = Stats.now_ns () in
  if sample_heap then heap_max := max !heap_max (heap_words ());
  {
    res;
    pos;
    lat;
    op_start;
    start;
    stop;
    exns = !exns;
    words = Gc.minor_words () -. w0;
    heap_max = !heap_max;
    retained_max = !retained_max;
    buf;
  }

(* Client 0 runs on the calling domain, client 1 on one spawned
   domain; both start on the same signal. *)
let run_clients f =
  let ready = Atomic.make false and go = Atomic.make false in
  let wait () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done
  in
  let d =
    Domain.spawn (fun () ->
        Atomic.set ready true;
        wait ();
        f 1)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  let c0 = f 0 in
  [| c0; Domain.join d |]

(* {1 Differential replay}

   Every operation returned its linearization position.  Sorting by
   position and replaying through the sequential spec must reproduce
   every recorded result, and the positions must be exactly
   0..total-1.  Returns the number of operations that fail: a bad or
   duplicate position, a result the replay disagrees with, or any
   operation positioned after a gap (it can no longer be replayed). *)
let replay (spec : Object_spec.t) (streams : Op.t array array) (outs : client_out array) =
  let total = Array.fold_left (fun a s -> a + Array.length s) 0 streams in
  let at = Array.make total (-1, -1) in
  let failed = ref 0 in
  Array.iteri
    (fun c (o : client_out) ->
      Array.iteri
        (fun i p ->
          if p < 0 || p >= total || fst at.(p) >= 0 then incr failed
          else at.(p) <- (c, i))
        o.pos)
    outs;
  let state = ref spec.init and gap = ref false in
  Array.iter
    (fun (c, i) ->
      if c < 0 then gap := true
      else if !gap then incr failed
      else begin
        let state', expected = Object_spec.apply spec !state streams.(c).(i) in
        state := state';
        if not (Value.equal outs.(c).res.(i) expected) then incr failed
      end)
    at;
  !failed

(* {1 The workload} *)

type acc = {
  mutable ops : int;
  mutable tickets : int;
  mutable op_ns : int;
  mutable apply_ns : int;
  mutable apply_calls : int;
  mutable words : float;
  mutable major : int;
  mutable passes : int;
  mutable retained : int;
}

let new_acc () =
  { ops = 0; tickets = 0; op_ns = 0; apply_ns = 0; apply_calls = 0; words = 0.; major = 0; passes = 0; retained = 0 }

(* Spans kept for the trace file: the first traced pass, capped at
   [span_cap] operations per client so the file stays small. *)
let span_cap = 5_000

let record_spans (outs : client_out array) =
  Array.iteri
    (fun d (o : client_out) ->
      let root = W.add_span ~domain:d "client" o.start o.stop in
      let n = min span_cap (Array.length o.lat) in
      let ids =
        Array.init n (fun i ->
            W.add_span ~parent:root ~domain:d "universal_rt.apply_pos" o.op_start.(i)
              (o.op_start.(i) + o.lat.(i)))
      in
      let b = o.buf in
      for k = 0 to b.len - 1 do
        if b.parents.(k) < n then
          ignore (W.add_span ~parent:ids.(b.parents.(k)) ~domain:d "spec.apply" b.starts.(k) b.ends.(k))
      done)
    outs

let sum f (outs : client_out array) = Array.fold_left (fun a o -> a + f o) 0 outs

(* [corrupt] doctors the recorded results before the replay; the
   self-test uses it to show a wrong result is counted as a failure. *)
let make ?(corrupt = ignore) ~name mix =
  let tr = new_acc () in
  let untraced_ops = ref 0 and untraced_tickets = ref 0 in
  let prepare ~seed ~pass ~traced =
    let streams =
      Array.init clients (fun pid ->
          let rng = Random.State.make [| seed; pass; pid |] in
          Array.init mix.ops_per_client (fun _ -> mix.draw rng))
    in
    let h = Service.make_handle ~n:clients (if traced then traced_spec mix.spec else mix.spec) in
    fun () ->
      (* each pass starts from a compacted heap, off the pass clock *)
      Gc.compact ();
      let m0 = (Gc.quick_stat ()).major_collections in
      let outs = run_clients (fun pid -> client ~traced h streams.(pid) pid) in
      let major = (Gc.quick_stat ()).major_collections - m0 in
      let start = Array.fold_left (fun a (o : client_out) -> min a o.start) max_int outs
      and stop = Array.fold_left (fun a (o : client_out) -> max a o.stop) min_int outs in
      let ops = clients * mix.ops_per_client in
      let exns = sum (fun o -> o.exns) outs in
      if exns > 0 then Printf.eprintf "%s: %d operations raised\n%!" name exns;
      corrupt outs;
      let failed = replay mix.spec streams outs in
      if failed > 0 then Printf.eprintf "%s: %d operations failed the differential replay\n%!" name failed;
      if not traced then begin
        untraced_ops := !untraced_ops + ops;
        untraced_tickets := !untraced_tickets + h.tickets ()
      end;
      let op_ns = sum (fun o -> Array.fold_left ( + ) 0 o.lat) outs in
      if traced then begin
        if tr.passes = 0 then record_spans outs;
        tr.passes <- tr.passes + 1;
        tr.ops <- tr.ops + ops;
        tr.tickets <- tr.tickets + h.tickets ();
        tr.op_ns <- tr.op_ns + op_ns;
        Array.iter
          (fun (o : client_out) ->
            let b = o.buf in
            tr.apply_calls <- tr.apply_calls + b.len;
            for k = 0 to b.len - 1 do
              tr.apply_ns <- tr.apply_ns + (b.ends.(k) - b.starts.(k))
            done)
          outs;
        tr.words <- tr.words +. Array.fold_left (fun a (o : client_out) -> a +. o.words) 0. outs;
        tr.major <- tr.major + major;
        tr.retained <- max tr.retained (Array.fold_left (fun a (o : client_out) -> max a o.retained_max) 0 outs)
      end;
      W.pass ~wall_ns:(stop - start)
        ~lats:(Array.concat (Array.to_list (Array.map (fun (o : client_out) -> o.lat) outs)))
        ~attempted:ops ~failed ~covered_ns:op_ns
        ~span_wall_ns:(sum (fun o -> o.stop - o.start) outs)
        ~peak_words:outs.(0).heap_max
        ~note:(Printf.sprintf "tickets/ops %.3f" (W.ratio (h.tickets ()) ops))
  in
  let hist name = Wfs.Obs.Metrics.(Histogram.make name) in
  let layers () =
    let batch = hist "universal_rt.wait_free.batch_size"
    and rounds = hist "universal_rt.wait_free.help_rounds_hist" in
    let p99 =
      let total = Wfs.Obs.Metrics.Histogram.count rounds in
      let rec go seen = function
        | [] -> 0
        | (upper, c) :: rest -> if 100 * (seen + c) >= 99 * total then upper else go (seen + c) rest
      in
      go 0 (Wfs.Obs.Metrics.Histogram.buckets rounds)
    in
    [
      ("universal_rt.fastpath_loss", W.ratio (tr.tickets - tr.ops) tr.ops);
      ("universal_rt.self_ns_per_op", W.ratio (tr.op_ns - tr.apply_ns) tr.ops);
      ( "universal_rt.batch_size_mean",
        W.ratio (Wfs.Obs.Metrics.Histogram.sum batch) (Wfs.Obs.Metrics.Histogram.count batch) );
      ("universal_rt.help_rounds_p99", float_of_int p99);
      ("universal_rt.retained_max", float_of_int tr.retained);
      ("spec.apply_calls_per_op", W.ratio tr.apply_calls tr.ops);
      ("spec.apply_ns", W.ratio tr.apply_ns tr.apply_calls);
      ("gc.minor_words_per_op", tr.words /. float_of_int (max 1 tr.ops));
      ("gc.major_collections", W.ratio tr.major tr.passes);
    ]
  in
  {
    W.name;
    prepare;
    begin_traced =
      (fun () ->
        Wfs.Obs.Metrics.reset ();
        Wfs.Obs.Metrics.set_hot true);
    layers;
    info =
      (fun () ->
        [ ("universal_rt.fastpath_loss", W.ratio (!untraced_tickets - !untraced_ops) !untraced_ops) ]);
  }
