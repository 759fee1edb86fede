(* The event recorder: one per-domain ring for profiler spans, instants
   and counters and for the causal tracer's phase events and help
   edges; one Chrome trace_event exporter; one JSONL dump.

   Record path: each domain owns a [dstate] (reached through
   [Domain.DLS], registered once in the global list under [reg_lock])
   and writes only to it, so recording takes no lock and contends with
   nobody.  A completed span is ONE ring slot, written at end time:
   wraparound therefore drops whole spans (oldest first) and can never
   leave an unbalanced begin without its end.

   Ring slots are flat unboxed int octets in a [Bigarray], not records
   in an OCaml array: pushing allocates nothing and triggers no write
   barrier, and — decisive on the traced universal-service bench — the
   ring's storage lives outside the OCaml heap, so the major GC never
   scans it.  A boxed-record ring cost ~35% there (per-event allocation
   + re-marking tens of thousands of pointers every cycle); even an
   unboxed [int array] ring cost ~20% just from the GC sweeping 4 MB of
   live immediates.  Slot layout, stride 8 (one cache line on 64-bit):
     [0] kind code   [1] ts (ns)        [2] interned name/obj   [3] w3
     [4] a           [5] b              [6] c                   [7] seq
   with the kind-specific words
     span     ts = end, w3 = cat (-1 none), a = start, b = begin seq,
              c = 1 when args ride in the side array
     instant  w3 = cat, c = args flag     counter  c = 1 (values)
     causal   w3 = trace id, a/b/c as documented on [event].
   Span/instant args and counter values are boxed, so they live in a
   per-domain side array indexed by slot, allocated and touched only
   by records that carry them; causal pushes never reach it.

   Ordering: [Clock.now_ns] can return equal values for adjacent
   events, so timestamps alone cannot reconstruct nesting.  Every slot
   (and every span's begin) instead takes a per-domain sequence number
   at the moment it happens; the exporter orders each tid's events by
   sequence and clamps timestamps non-decreasing, which yields a
   properly nested, monotone timeline even under ties. *)

type args = (string * Json.t) list
type kind = Invoke | Announce | Claim | Help | Complete | Span | Instant | Counter

type event = {
  kind : kind;
  ts : int;
  dom : int;
  obj : string;
  trace : int;
  a : int;
  b : int;
  c : int;
  seq : int;
  args : args;
}

type meta_entry = { m_obj : string; m_n : int; m_bound : int }
type ring_arr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let stride = 8
let empty_ring : ring_arr = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0

(* a slot's kind code is its constructor's index in [kinds] *)
let kinds = [| Invoke; Announce; Claim; Help; Complete; Span; Instant; Counter |]

let code_of_kind = function
  | Invoke -> 0
  | Announce -> 1
  | Claim -> 2
  | Help -> 3
  | Complete -> 4
  | Span -> 5
  | Instant -> 6
  | Counter -> 7

let is_causal = function Span | Instant | Counter -> false | _ -> true

(* A begin_ whose end_ has not happened yet lives on the domain's
   stack, not in the ring; it enters the ring only once completed. *)
type open_span = {
  o_name : string;
  o_cat : string option;
  o_t0 : int;
  o_bseq : int;
  o_args : args;
}

type dstate = {
  tid : int;
  mutable ring : ring_arr; (* allocated on first push *)
  mutable side : args array; (* allocated on first record with args *)
  mutable pos : int; (* next slot index (not word index) *)
  mutable filled : int; (* live slots, <= capacity *)
  mutable dropped : int;
  mutable seq : int;
  mutable stack_ : open_span list;
  mutable current : int; (* trace id of this domain's in-flight invocation *)
  mutable names : (string * int) list; (* physical-equality intern cache *)
}

let on = ref false

(* [trace_gate] fuses "causal sampling on" and the sampling mask into
   one word for the per-operation hot path: the mask while tracing,
   [-1] when off. *)
let trace_gate = ref (-1)
let sample_mask = ref 63
let ring_capacity = ref 65536
let ids = Atomic.make 0
let reg_lock = Mutex.create ()
let all : dstate list ref = ref []
let metas : meta_entry list ref = ref [] (* guarded by reg_lock *)

(* name interning, both directions, guarded by [reg_lock] *)
let intern_tbl : (string, int) Hashtbl.t = Hashtbl.create 64
let intern_rev : (int, string) Hashtbl.t = Hashtbl.create 64

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let d =
        {
          tid = (Domain.self () :> int);
          ring = empty_ring;
          side = [||];
          pos = 0;
          filled = 0;
          dropped = 0;
          seq = 0;
          stack_ = [];
          current = -1;
          names = [];
        }
      in
      Mutex.lock reg_lock;
      all := d :: !all;
      Mutex.unlock reg_lock;
      d)

let enabled () = !on

(* The ring itself survives a reset: [filled = 0] already makes stale
   contents undecodable, and re-allocating megabytes of custom-block
   storage on every enable both thrashes the allocator and — through
   the GC's dependent-memory accounting — speeds up major collections
   for the rest of the run, a real tax on enable/disable benchmark
   loops.  A capacity change is picked up by [push], which reallocates
   on size mismatch. *)
let clear_dstate d =
  d.side <- [||];
  d.pos <- 0;
  d.filled <- 0;
  d.dropped <- 0;
  d.seq <- 0;
  d.stack_ <- [];
  d.current <- -1;
  d.names <- []

let reset () =
  Mutex.lock reg_lock;
  List.iter clear_dstate !all;
  metas := [];
  Hashtbl.reset intern_tbl;
  Hashtbl.reset intern_rev;
  Mutex.unlock reg_lock;
  Atomic.set ids 0

(* A switch turned on while the other is off begins a fresh recording;
   turned on while the other is on, it joins the one in progress. *)
let start ~other_on capacity =
  if not other_on then begin
    reset ();
    ring_capacity := max 1 capacity
  end

let enable ?(ring_capacity = 65536) () =
  start ~other_on:(!trace_gate >= 0) ring_capacity;
  on := true

let disable () = on := false

let start_causal ?(ring_capacity = 65536) ~mask () =
  start ~other_on:!on ring_capacity;
  sample_mask := mask;
  trace_gate := mask

let sample_every () = !sample_mask + 1

(* Names (span names, categories, object labels) intern to small ints
   so ring slots stay unboxed.  The per-domain cache is a
   physical-equality assoc list: recording sites pass the same literal
   or label string on every call, so the common case is a pointer
   compare near the list head; a miss takes [reg_lock] once per
   (domain, name).  The cache is bounded so a caller that builds names
   on the fly cannot grow it without limit. *)
let intern d s =
  let rec find = function
    | (s', id) :: tl -> if s' == s then id else find tl
    | [] ->
        Mutex.lock reg_lock;
        let id =
          match Hashtbl.find_opt intern_tbl s with
          | Some id -> id
          | None ->
              let id = Hashtbl.length intern_tbl in
              Hashtbl.add intern_tbl s id;
              Hashtbl.add intern_rev id s;
              id
        in
        Mutex.unlock reg_lock;
        d.names <- (s, id) :: (if List.length d.names >= 64 then [] else d.names);
        id
  in
  find d.names

(* Write one slot; returns its index (for the side array). *)
let push d kind ~ts w2 w3 a b c =
  let cap = !ring_capacity in
  let ring =
    let r = d.ring in
    if Bigarray.Array1.dim r = cap * stride then r
    else begin
      (* no zero-fill: [filled] bounds exactly which slots decode, so
         fresh memory is never read — and eagerly touching a multi-MB
         ring here would bill megabytes of page faults to whichever
         operation happened to record first *)
      let r = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (cap * stride) in
      d.ring <- r;
      d.side <- [||];
      r
    end
  in
  let slot = d.pos in
  let base = slot * stride in
  let seq = d.seq in
  d.seq <- seq + 1;
  Bigarray.Array1.unsafe_set ring base (code_of_kind kind);
  Bigarray.Array1.unsafe_set ring (base + 1) ts;
  Bigarray.Array1.unsafe_set ring (base + 2) w2;
  Bigarray.Array1.unsafe_set ring (base + 3) w3;
  Bigarray.Array1.unsafe_set ring (base + 4) a;
  Bigarray.Array1.unsafe_set ring (base + 5) b;
  Bigarray.Array1.unsafe_set ring (base + 6) c;
  Bigarray.Array1.unsafe_set ring (base + 7) seq;
  let p = slot + 1 in
  d.pos <- (if p = cap then 0 else p);
  if d.filled < cap then d.filled <- d.filled + 1
  else d.dropped <- d.dropped + 1;
  slot

let has_args = function [] -> 0 | _ -> 1

let store_args d slot = function
  | [] -> ()
  | args ->
      let cap = !ring_capacity in
      if Array.length d.side <> cap then d.side <- Array.make cap [];
      d.side.(slot) <- args

let cat_id d = function None -> -1 | Some c -> intern d c
let force_args = function None -> [] | Some f -> f ()

(* ---------- spans, instants, counters ---------- *)

let record_span d ~name ~cat ~t0 ~bseq args =
  let t1 = Clock.now_ns () in
  store_args d
    (push d Span ~ts:t1 (intern d name) (cat_id d cat) t0 bseq (has_args args))
    args

let begin_ ?cat ?args name =
  if !on then begin
    let d = Domain.DLS.get dls in
    let bseq = d.seq in
    d.seq <- bseq + 1;
    let o_t0 = Clock.now_ns () in
    d.stack_ <-
      { o_name = name; o_cat = cat; o_t0; o_bseq = bseq; o_args = force_args args }
      :: d.stack_
  end

let end_ () =
  if !on then
    let d = Domain.DLS.get dls in
    match d.stack_ with
    | [] -> () (* enabled mid-span, or an unmatched end_: ignore *)
    | o :: rest ->
        d.stack_ <- rest;
        record_span d ~name:o.o_name ~cat:o.o_cat ~t0:o.o_t0 ~bseq:o.o_bseq
          o.o_args

let span ?cat ?args name f =
  if not !on then f ()
  else begin
    begin_ ?cat ?args name;
    match f () with
    | v ->
        end_ ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        end_ ();
        Printexc.raise_with_backtrace e bt
  end

let complete ?cat ?args name ~t0_ns =
  if !on then begin
    let d = Domain.DLS.get dls in
    let bseq = d.seq in
    d.seq <- bseq + 1;
    record_span d ~name ~cat ~t0:t0_ns ~bseq (force_args args)
  end

let instant ?cat ?args name =
  if !on then begin
    let d = Domain.DLS.get dls in
    let args = force_args args in
    store_args d
      (push d Instant ~ts:(Clock.now_ns ()) (intern d name) (cat_id d cat) 0 0
         (has_args args))
      args
  end

let counter name values =
  if !on then begin
    let d = Domain.DLS.get dls in
    let args = List.map (fun (k, x) -> (k, Json.float x)) values in
    store_args d
      (push d Counter ~ts:(Clock.now_ns ()) (intern d name) (-1) 0 0
         (has_args args))
      args
  end

(* ---------- causal slots ---------- *)

let push_causal kind ~obj ~trace a b c =
  let d = Domain.DLS.get dls in
  ignore (push d kind ~ts:(Clock.now_ns ()) (intern d obj) trace a b c);
  (* completion retires this domain's in-flight register, so help the
     domain performs afterwards (outside any traced invocation of its
     own) attributes to anonymous (-1), not to a finished invocation *)
  if kind = Complete then d.current <- -1

let issue () =
  if !trace_gate < 0 then -1
  else begin
    let tr = Atomic.fetch_and_add ids 1 in
    (Domain.DLS.get dls).current <- tr;
    tr
  end

let current () = if !trace_gate >= 0 then (Domain.DLS.get dls).current else -1

let add_meta m =
  Mutex.lock reg_lock;
  metas := m :: List.filter (fun m' -> m'.m_obj <> m.m_obj) !metas;
  Mutex.unlock reg_lock

(* ---------- snapshot ---------- *)

(* Registered objects, then every domain's decoded slots (domains by
   tid, oldest slot first within each), and the name table. *)
let snapshot () =
  Mutex.lock reg_lock;
  let name_of id = Option.value ~default:"?" (Hashtbl.find_opt intern_rev id) in
  let decode d =
    let cap = Bigarray.Array1.dim d.ring / stride and n = d.filled in
    let get = Bigarray.Array1.get d.ring in
    List.init n (fun i ->
        let slot = (d.pos - n + i + cap) mod cap in
        let base = slot * stride in
        let kind = kinds.(get base) and c = get (base + 6) in
        {
          kind;
          ts = get (base + 1);
          dom = d.tid;
          obj = name_of (get (base + 2));
          trace = get (base + 3);
          a = get (base + 4);
          b = get (base + 5);
          c;
          seq = get (base + 7);
          (* bounds-checked: a flight-recorder read may race a
             straggler's push that has not stored its args yet *)
          args =
            (if (not (is_causal kind)) && c = 1 && slot < Array.length d.side
             then d.side.(slot)
             else []);
        })
  in
  let ds = List.sort (fun a b -> compare a.tid b.tid) !all in
  let r = (List.rev !metas, List.concat_map decode ds, name_of) in
  Mutex.unlock reg_lock;
  r

let causal_snapshot () =
  let ms, evs, _ = snapshot () in
  (ms, List.filter (fun e -> is_causal e.kind) evs)

let fold_dstates f =
  Mutex.lock reg_lock;
  let n = List.fold_left (fun acc d -> acc + f d) 0 !all in
  Mutex.unlock reg_lock;
  n

let recorded () = fold_dstates (fun d -> d.filled)
let dropped () = fold_dstates (fun d -> d.dropped)
let start_of e = if e.kind = Span then e.a else e.ts

(* A slot's kind name and kind-specific fields. *)
let kind_fields e =
  let i = Json.int in
  match e.kind with
  | Invoke -> ("invoke", [ ("pid", i e.a) ])
  | Announce -> ("announce", [ ("pid", i e.a); ("born", i e.b) ])
  | Claim -> ("claim", [ ("node", i e.a); ("pos", i e.b) ])
  | Help -> ("help", [ ("helper", i e.a); ("pos", i e.b) ])
  | Complete ->
      ( "complete",
        [ ("pos", i e.a); ("own_steps", i e.b); ("help_rounds", i e.c) ] )
  | Span -> ("span", [ ("dur_ns", i (e.ts - e.a)) ])
  | Instant -> ("instant", [])
  | Counter -> ("counter", [])

(* A span's, instant's or counter's category and args fields. *)
let cat_field name_of e =
  if e.trace < 0 then [] else [ ("cat", Json.str (name_of e.trace)) ]

let args_field e = match e.args with [] -> [] | a -> [ ("args", Json.obj a) ]

let meta_fields m =
  [ ("obj", Json.str m.m_obj); ("n", Json.int m.m_n); ("bound", Json.int m.m_bound) ]

(* The flush inside the body makes a failed write (a full disk) raise
   its own [Sys_error] rather than vanish in the close. *)
let with_out path f =
  Out_channel.with_open_text path (fun oc ->
      f oc;
      flush oc)

(* ---------- Chrome trace_event export ---------- *)

(* One exporter event on track [v_tid]: [v_seq] orders it within the
   track and [v_ts] is clamped non-decreasing per track before
   rendering; [v_fields] follow the common name/ph/ts/pid/tid. *)
type ev = {
  v_tid : int;
  v_seq : int;
  v_ts : int;
  v_name : string;
  v_ph : string;
  v_fields : (string * Json.t) list;
}

let to_json () =
  let ms, evs, name_of = snapshot () in
  let pid = Unix.getpid () in
  (* rebase on the earliest timestamp so microsecond floats keep
     nanosecond precision (epoch-ns / 1000 exceeds the mantissa) *)
  let t_base = List.fold_left (fun acc e -> min acc (start_of e)) max_int evs in
  let t_base = if t_base = max_int then 0 else t_base in
  let us ns = Json.float (float_of_int ns /. 1_000.) in
  (* a completed invocation renders as one "X" slice from its invoke
     to its completion; help-edge arrow heads bind to the helped
     invocation's completion *)
  let invoke_of = Hashtbl.create 256 and complete_of = Hashtbl.create 256 in
  List.iter
    (fun e ->
      match e.kind with
      | Invoke -> Hashtbl.replace invoke_of e.trace e
      | Complete -> Hashtbl.replace complete_of e.trace e
      | _ -> ())
    evs;
  let ev (e : event) ?(seq = e.seq) ?(ts = e.ts) name ph fields =
    {
      v_tid = e.dom;
      v_seq = seq;
      v_ts = ts;
      v_name = name;
      v_ph = ph;
      v_fields = fields;
    }
  in
  let causal_args ?pid e =
    let name, fields = kind_fields e in
    let key = if name = "help" then "helped" else "trace" in
    let pid = Option.fold ~none:[] ~some:(fun p -> [ ("pid", Json.int p) ]) pid in
    ( "args",
      Json.obj
        (((key, Json.int e.trace) :: pid) @ fields @ [ ("obj", Json.str e.obj) ]) )
  in
  let causal_instant e name =
    ev e name "i"
      [ ("s", Json.str "t"); ("cat", Json.str "causal"); causal_args e ]
  in
  let op_slice e ~inv_pid c =
    ev e c.obj "X"
      [
        ("dur", us (max 0 (c.ts - e.ts)));
        ("cat", Json.str "causal.op");
        causal_args ~pid:inv_pid c;
      ]
  in
  let flow_id = ref 0 and arrow_heads = ref [] in
  let events_of e =
    match e.kind with
    | Span ->
        let cat = cat_field name_of e in
        [ ev e ~seq:e.b ~ts:e.a e.obj "B" (cat @ args_field e); ev e e.obj "E" cat ]
    | Instant ->
        [ ev e e.obj "i" (cat_field name_of e @ (("s", Json.str "t") :: args_field e)) ]
    | Counter -> [ ev e e.obj "C" (args_field e) ]
    | Invoke -> (
        match Hashtbl.find_opt complete_of e.trace with
        | Some c -> [ op_slice e ~inv_pid:e.a c ]
        (* a crash-interrupted (or wraparound-torn) op stays visible *)
        | None -> [ causal_instant e "causal.pending" ])
    | Complete ->
        if Hashtbl.mem invoke_of e.trace then []
        else [ op_slice e ~inv_pid:(-1) e ]
    | Announce -> [ causal_instant e "causal.announce" ]
    | Claim -> [ causal_instant e "causal.claim" ]
    | Help ->
        incr flow_id;
        let fields =
          [ ("cat", Json.str "causal"); ("id", Json.int !flow_id); causal_args e ]
        in
        (* the arrow head sits on the helped completion's track; an
           unterminated flow start is still a countable edge *)
        Option.iter
          (fun c ->
            let head = ("bp", Json.str "e") :: fields in
            arrow_heads :=
              ev c ~ts:(max c.ts e.ts) "help" "f" head :: !arrow_heads)
          (Hashtbl.find_opt complete_of e.trace);
        [ ev e "help" "s" fields ]
  in
  let meta m =
    {
      v_tid = 0;
      v_seq = min_int;
      v_ts = t_base;
      v_name = "causal.meta";
      v_ph = "i";
      v_fields =
        [
          ("s", Json.str "g");
          ("cat", Json.str "causal");
          ( "args",
            Json.obj
              (meta_fields m @ [ ("sample", Json.int (sample_every ())) ]) );
        ];
    }
  in
  let vs = List.map meta ms @ List.concat_map events_of evs in
  (* arrow heads go last so they follow every same-seq event *)
  let vs = vs @ List.rev !arrow_heads in
  let last = ref (-1, min_int) in
  let render v =
    let ts =
      match !last with
      | tid, t when tid = v.v_tid && v.v_ts < t -> t
      | _ -> v.v_ts
    in
    last := (v.v_tid, ts);
    Json.obj
      (("name", Json.str v.v_name)
      :: ("ph", Json.str v.v_ph)
      :: ("ts", us (ts - t_base))
      :: ("pid", Json.int pid)
      :: ("tid", Json.int v.v_tid)
      :: v.v_fields)
  in
  let row name tid label =
    Json.obj
      [
        ("name", Json.str name);
        ("ph", Json.str "M");
        ("pid", Json.int pid);
        ("tid", Json.int tid);
        ("args", Json.obj [ ("name", Json.str label) ]);
      ]
  in
  let tids = List.sort_uniq compare (List.map (fun v -> v.v_tid) vs) in
  let by_track =
    List.stable_sort
      (fun x y -> compare (x.v_tid, x.v_seq) (y.v_tid, y.v_seq))
      vs
  in
  Json.obj
    [
      ( "traceEvents",
        Json.list
          (row "process_name" 0 "wfs"
           :: List.map
                (fun tid -> row "thread_name" tid (Fmt.str "domain-%d" tid))
                tids
          @ List.map render by_track) );
      ("displayTimeUnit", Json.str "ms");
    ]

let write path =
  with_out path (fun oc ->
      output_string oc (Json.to_string_pretty (to_json ()));
      output_char oc '\n')

(* ---------- JSONL dump (flight recorder, wfs stats --trace) ---------- *)

let dump_jsonl path =
  let ms, evs, name_of = snapshot () in
  let line e =
    let kind, fields = kind_fields e in
    let rest =
      if is_causal e.kind then
        ("obj", Json.str e.obj) :: ("trace", Json.int e.trace) :: fields
      else
        (("name", Json.str e.obj) :: fields) @ cat_field name_of e @ args_field e
    in
    Json.obj
      (("kind", Json.str kind)
      :: ("ts", Json.int (start_of e))
      :: ("dom", Json.int e.dom)
      :: rest)
  in
  let key (e : event) = (start_of e, e.dom, e.seq) in
  let lines =
    List.map (fun m -> Json.obj (("kind", Json.str "meta") :: meta_fields m)) ms
    @ List.map line (List.stable_sort (fun x y -> compare (key x) (key y)) evs)
  in
  with_out path (fun oc ->
      List.iter (fun j -> output_string oc (Json.to_string j ^ "\n")) lines);
  List.length lines
