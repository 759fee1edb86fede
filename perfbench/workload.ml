(* What every workload hands [main.ml]: a way to set up
   one pass and run it, plus the per-layer metrics of its traced
   passes. *)

type pass = {
  wall_ns : int;  (** from the first call to the last result *)
  lat_p50 : float;  (** client-seen latency quantiles of the calls, ns *)
  lat_p99 : float;
  attempted : int;
  failed : int;
  covered_ns : int;
      (** traced passes: time inside the layer spans; compared with
          [span_wall_ns] to catch a layer the spans miss *)
  span_wall_ns : int;
  peak_words : int;  (** major-heap high-water mark seen by this pass *)
  note : string;  (** per-pass detail for the human-readable summary *)
}

type t = {
  name : string;
  prepare : seed:int -> pass:int -> traced:bool -> unit -> pass;
      (** [prepare] is the set-up (timed as [setup_s]); the closure it
          returns is the timed pass *)
  begin_traced : unit -> unit;
      (** called once before the first traced pass *)
  layers : unit -> (string * float) list;
      (** per-layer metrics accumulated over the traced passes *)
  info : unit -> (string * float) list;
      (** figures printed with every run, traced or not *)
}

(* Latency quantiles are taken when the pass ends, off the clock, so
   the samples need not outlive it. *)
let pass ~wall_ns ~lats ~attempted ~failed ~covered_ns ~span_wall_ns ~peak_words ~note =
  let p50, p99 =
    match Stats.quantiles_of_ints lats [ 0.5; 0.99 ] with [ a; b ] -> (a, b) | _ -> (nan, nan)
  in
  {
    wall_ns;
    lat_p50 = p50;
    lat_p99 = p99;
    attempted;
    failed;
    covered_ns;
    span_wall_ns;
    peak_words;
    note;
  }

let counter name =
  Option.value ~default:0 (Wfs.Obs.Metrics.counter_value name)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* {1 Spans}

   Traced passes record one span per layer call: name, start, end,
   parent and recording domain.  They stay in memory until the run
   ends, then [write_spans] emits them as JSON lines. *)

type span = {
  id : int;
  name : string;
  start_ns : int;
  end_ns : int;
  parent : int;  (** -1 for a root *)
  domain : int;
}

let spans : span list ref = ref []
let next_id = ref 0

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let add_span ?(id = fresh_id ()) ?(parent = -1) ?(domain = 0) name start_ns
    end_ns =
  spans := { id; name; start_ns; end_ns; parent; domain } :: !spans;
  id

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"domain\":%d}\n"
        s.id s.name s.start_ns s.end_ns s.parent s.domain)
    (List.rev !spans);
  close_out oc
