(* Causal invocation tracing and the wait-freedom auditor.

   Events live in {!Profile}'s per-domain rings (the one event store):
   this module is the construction-facing half — the sampling policy,
   the recording hooks, the audited step bound — plus the auditor.
   Wraparound drops oldest events, so the rings double as the crash
   flight recorder ({!Profile.dump_jsonl}).

   Events name invocations by a process-global trace id issued at
   invocation time ({!issue}).  Sampling is decided BEFORE issuing,
   from the operation's own sequence number (ticket or op counter):
   unsampled operations never touch the global id counter or the DLS,
   which is what keeps the traced-path overhead inside the <=5%
   budget.  Helper attribution rides on a per-domain "current
   invocation" register set by [issue] and retired when the domain
   pushes a [Complete]: when a domain, inside its own traced
   invocation [h], applies a pending invocation [x] announced by
   somebody else, the recording site reads the domain's current id and
   emits the help edge [h -> x].  A domain helping outside any traced
   invocation of its own records the edge with helper [-1] — an
   anonymous edge, counted and drawn but never part of a chain.  Raw
   edges can point "backwards" in linearization order when a lagging
   filler replays an already-decided round, so the auditor keeps an
   edge only when the helper is anonymous, still pending, or known to
   linearize strictly after the invocation it helped; under that
   orientation every participant of a would-be cycle has a known
   position, so the kept traced subgraph is acyclic by construction —
   matching the construction's helping discipline, where help always
   flows to operations that linearize earlier. *)

let trace_gate = Profile.trace_gate
let enabled () = !trace_gate >= 0

let enable ?ring_capacity ?(sample = 64) () =
  if sample < 1 then
    invalid_arg (Fmt.str "Causal.enable: sample must be >= 1 (got %d)" sample);
  (* round the sampling period up to a power of two so the per-op
     sampledness check is a single mask *)
  let rec pow2 k = if k >= sample then k else pow2 (k * 2) in
  Profile.start_causal ?ring_capacity ~mask:(pow2 1 - 1) ()

let disable () = trace_gate := -1
let reset = Profile.reset
let sample_every = Profile.sample_every
let sampled seq = seq >= 0 && seq land (sample_every () - 1) = 0
let issue = Profile.issue
let current = Profile.current

let invoke ~obj ~trace ~pid =
  if !trace_gate >= 0 then Profile.push_causal Invoke ~obj ~trace pid 0 0

let announce ~obj ~trace ~pid ~born =
  if !trace_gate >= 0 then Profile.push_causal Announce ~obj ~trace pid born 0

let claim ~obj ~trace ~node ~pos =
  if !trace_gate >= 0 then Profile.push_causal Claim ~obj ~trace node pos 0

let help ~obj ~helper ~helped ~pos =
  if !trace_gate >= 0 then Profile.push_causal Help ~obj ~trace:helped helper pos 0

let complete ~obj ~trace ~pos ~own_steps ~help_rounds =
  if !trace_gate >= 0 then
    Profile.push_causal Complete ~obj ~trace pos own_steps help_rounds

let meta ~obj ~n ~bound =
  if !trace_gate >= 0 then
    Profile.add_meta { Profile.m_obj = obj; m_n = n; m_bound = bound }

(* The audited own-step bound for the batched construction on [n]
   processes.  An own step is one iteration of the proposer's work
   loop (a consensus proposal + fill), counting the lost fast-path
   attempt and the announce.  After the announce lands with the
   frontier at [s0], every helper whose round starts later sees the
   announced invocation; the starving check trips at most [n+2]
   positions past [born], priority helping cycles to this process
   within a further [n+2] positions, and each of the proposer's own
   rounds advances the frontier it observes by at least one — so the
   invocation is threaded within [2n+4] own rounds of the announce.
   With the fast-path attempt, the announce itself, and the final
   result check, [2n+8] dominates every schedule. *)
let step_bound ~n = (2 * n) + 8

(* The help canary parks the proposer between announce and self-help so
   concurrently scheduled clients get a chance to collect and thread
   the announced invocation.  A real sleep (not cpu_relax) matters on
   few-core boxes: domains time-slice, and only a syscall deschedules
   the canary long enough for another client's collect to run. *)
let backoff () = Unix.sleepf 5e-5

(* ---------- wait-freedom auditor ---------- *)

module Audit = struct
  type inv = {
    i_trace : int;
    i_obj : string;
    i_pid : int;
    i_pos : int; (* -1 when pending *)
    i_steps : int; (* -1 when pending *)
    i_rounds : int;
    i_completed : bool;
  }

  type edge = { e_helper : int; e_helped : int; e_pos : int; e_obj : string }

  type violation = {
    v_trace : int;
    v_obj : string;
    v_pid : int;
    v_steps : int;
    v_bound : int;
  }

  type report = {
    objects : (string * int * int) list; (* name, n, audited bound *)
    invocations : int;
    completed : int;
    announces : int;
    claims : int;
    edges_seen : int;
    edges_kept : int;
    edges_stale : int;
    max_own_steps : int;
    max_help_rounds : int;
    depth_hist : (int * int) list; (* help-chain depth -> invocations *)
    max_depth : int;
    top_helpers : (int * int) list; (* helper trace id, out-edges *)
    violations : violation list;
    unbounded : int; (* completed on an object with no registered bound *)
    dag_ok : bool;
  }

  let build ~objects ~invs ~edges ~announces ~claims =
    let pos_of = Hashtbl.create 256 in
    List.iter
      (fun i -> if i.i_pos >= 0 then Hashtbl.replace pos_of i.i_trace i.i_pos)
      invs;
    List.iter
      (fun e ->
        if e.e_pos >= 0 && not (Hashtbl.mem pos_of e.e_helped) then
          Hashtbl.replace pos_of e.e_helped e.e_pos)
      edges;
    let edges_seen = List.length edges in
    (* orientation filter: a genuine help edge has the helper linearize
       strictly after the invocation it helped (a still-pending helper
       trivially qualifies, as does an anonymous helper — an untraced
       filler, recorded as -1); anything else is a lagging replay
       echo *)
    let kept, stale =
      List.partition
        (fun e ->
          e.e_helper <> e.e_helped
          && (e.e_helper < 0
             ||
             match Hashtbl.find_opt pos_of e.e_helper with
             | None -> true
             | Some p -> p > e.e_pos))
        edges
    in
    (* chain depth (how many links of helpers-of-helpers end at each
       invocation) with cycle detection over the kept edges *)
    let in_edges = Hashtbl.create 256 in
    List.iter
      (fun e ->
        let prev =
          match Hashtbl.find_opt in_edges e.e_helped with
          | None -> []
          | Some l -> l
        in
        Hashtbl.replace in_edges e.e_helped (e :: prev))
      kept;
    let dag_ok = ref true in
    let visiting = Hashtbl.create 256 in
    let depth = Hashtbl.create 256 in
    let rec chain tr =
      match Hashtbl.find_opt depth tr with
      | Some d -> d
      | None ->
          if Hashtbl.mem visiting tr then begin
            dag_ok := false;
            0
          end
          else begin
            Hashtbl.replace visiting tr ();
            (* an anonymous helper contributes one link but no further
               ancestry — there is no trace id to chase *)
            let d =
              List.fold_left
                (fun acc e ->
                  max acc (if e.e_helper < 0 then 1 else 1 + chain e.e_helper))
                0
                (match Hashtbl.find_opt in_edges tr with
                | None -> []
                | Some l -> l)
            in
            Hashtbl.remove visiting tr;
            Hashtbl.replace depth tr d;
            d
          end
    in
    let hist = Hashtbl.create 16 in
    let max_depth = ref 0 in
    List.iter
      (fun i ->
        let d = chain i.i_trace in
        if d > !max_depth then max_depth := d;
        Hashtbl.replace hist d
          (1 + Option.value ~default:0 (Hashtbl.find_opt hist d)))
      invs;
    let depth_hist =
      Hashtbl.fold (fun d c acc -> (d, c) :: acc) hist []
      |> List.sort compare
    in
    let helpers = Hashtbl.create 64 in
    List.iter
      (fun e ->
        if e.e_helper >= 0 then
          Hashtbl.replace helpers e.e_helper
            (1 + Option.value ~default:0 (Hashtbl.find_opt helpers e.e_helper)))
      kept;
    let top_helpers =
      Hashtbl.fold (fun t c acc -> (t, c) :: acc) helpers []
      |> List.sort (fun (t1, c1) (t2, c2) -> compare (-c1, t1) (-c2, t2))
      |> List.filteri (fun i _ -> i < 5)
    in
    let bound_of obj =
      List.find_map (fun (o, _, b) -> if o = obj then Some b else None) objects
    in
    let completed = List.filter (fun i -> i.i_completed) invs in
    (* fail closed: a completion with no bound to check against is
       counted, never silently passed *)
    let bounded, unbounded =
      List.partition_map
        (fun i ->
          match bound_of i.i_obj with
          | Some b -> Left (i, b)
          | None -> Right i)
        completed
    in
    let violations =
      List.filter_map
        (fun (i, b) ->
          if i.i_steps > b then
            Some
              {
                v_trace = i.i_trace;
                v_obj = i.i_obj;
                v_pid = i.i_pid;
                v_steps = i.i_steps;
                v_bound = b;
              }
          else None)
        bounded
      |> List.sort (fun a b -> compare (-a.v_steps, a.v_trace) (-b.v_steps, b.v_trace))
    in
    {
      objects;
      invocations = List.length invs;
      completed = List.length completed;
      announces;
      claims;
      edges_seen;
      edges_kept = List.length kept;
      edges_stale = List.length stale;
      max_own_steps =
        List.fold_left (fun acc i -> max acc i.i_steps) 0 completed;
      max_help_rounds =
        List.fold_left (fun acc i -> max acc i.i_rounds) 0 completed;
      depth_hist;
      max_depth = !max_depth;
      top_helpers;
      violations;
      unbounded = List.length unbounded;
      dag_ok = !dag_ok;
    }

  let ok r =
    r.completed > 0 && r.unbounded = 0 && r.violations = [] && r.dag_ok

  (* partial invocation assembled from phase events *)
  type partial = {
    mutable p_obj : string;
    mutable p_pid : int;
    mutable p_pos : int;
    mutable p_steps : int;
    mutable p_rounds : int;
    mutable p_completed : bool;
  }

  let assemble tbl edges_tbl announces claims =
    let invs =
      Hashtbl.fold
        (fun tr p acc ->
          {
            i_trace = tr;
            i_obj = p.p_obj;
            i_pid = p.p_pid;
            i_pos = p.p_pos;
            i_steps = p.p_steps;
            i_rounds = p.p_rounds;
            i_completed = p.p_completed;
          }
          :: acc)
        tbl []
      |> List.sort (fun a b -> compare a.i_trace b.i_trace)
    in
    let edges =
      Hashtbl.fold (fun _ e acc -> e :: acc) edges_tbl []
      |> List.sort (fun a b ->
             compare (a.e_helped, a.e_helper) (b.e_helped, b.e_helper))
    in
    (invs, edges, announces, claims)

  let partial_of tbl tr obj =
    match Hashtbl.find_opt tbl tr with
    | Some p -> p
    | None ->
        let p =
          {
            p_obj = obj;
            p_pid = -1;
            p_pos = -1;
            p_steps = -1;
            p_rounds = 0;
            p_completed = false;
          }
        in
        Hashtbl.add tbl tr p;
        p

  let of_events (ms, evs) =
    let tbl = Hashtbl.create 256 in
    let edges_tbl = Hashtbl.create 256 in
    let announces = ref 0 and claims = ref 0 in
    List.iter
      (fun (e : Profile.event) ->
        match e.kind with
        | Invoke ->
            let p = partial_of tbl e.trace e.obj in
            p.p_pid <- e.a
        | Announce ->
            incr announces;
            let p = partial_of tbl e.trace e.obj in
            if p.p_pid < 0 then p.p_pid <- e.a
        | Claim ->
            incr claims;
            let p = partial_of tbl e.trace e.obj in
            if p.p_pos < 0 then p.p_pos <- e.b
        | Complete ->
            let p = partial_of tbl e.trace e.obj in
            p.p_pos <- e.a;
            p.p_steps <- e.b;
            p.p_rounds <- e.c;
            p.p_completed <- true
        | Help ->
            Hashtbl.replace edges_tbl (e.a, e.trace)
              { e_helper = e.a; e_helped = e.trace; e_pos = e.b; e_obj = e.obj }
        | Span | Instant | Counter -> ())
      evs;
    let invs, edges, announces, claims =
      assemble tbl edges_tbl !announces !claims
    in
    build
      ~objects:
        (List.map
           (fun (m : Profile.meta_entry) -> (m.m_obj, m.m_n, m.m_bound))
           ms)
      ~invs ~edges ~announces ~claims

  let of_recording () = of_events (Profile.causal_snapshot ())

  (* read a trace file written by {!Profile.write} back into a report; raises
     [Invalid_argument] when the JSON is not a causal trace *)
  let of_trace_json j =
    let evs =
      match Option.bind (Json.member "traceEvents" j) Json.to_list with
      | Some l -> l
      | None -> invalid_arg "trace: missing traceEvents array"
    in
    let geti k o = Option.bind (Json.member k o) Json.to_int in
    let gets k o = Option.bind (Json.member k o) Json.to_str in
    let tbl = Hashtbl.create 256 in
    let edges_tbl = Hashtbl.create 256 in
    let objects = ref [] in
    let announces = ref 0 and claims = ref 0 in
    List.iter
      (fun e ->
        let name = gets "name" e and ph = gets "ph" e and cat = gets "cat" e in
        let args = Option.value ~default:Json.null (Json.member "args" e) in
        let argi k = Option.value ~default:(-1) (geti k args) in
        let arg_obj () = Option.value ~default:"" (gets "obj" args) in
        match (name, ph) with
        | Some "causal.meta", _ ->
            let o = arg_obj () in
            if not (List.exists (fun (o', _, _) -> o' = o) !objects) then
              objects := (o, argi "n", argi "bound") :: !objects
        | _, Some "X" when cat = Some "causal.op" ->
            let p = partial_of tbl (argi "trace") (arg_obj ()) in
            p.p_pid <- argi "pid";
            p.p_pos <- argi "pos";
            p.p_steps <- argi "own_steps";
            p.p_rounds <- argi "help_rounds";
            p.p_completed <- true
        | Some "causal.pending", _ ->
            let p = partial_of tbl (argi "trace") (arg_obj ()) in
            p.p_pid <- argi "pid"
        | Some "help", Some "s" ->
            let helper = argi "helper" and helped = argi "helped" in
            Hashtbl.replace edges_tbl (helper, helped)
              {
                e_helper = helper;
                e_helped = helped;
                e_pos = argi "pos";
                e_obj = arg_obj ();
              }
        | Some "causal.announce", _ -> incr announces
        | Some "causal.claim", _ -> incr claims
        | _ -> ())
      evs;
    let invs, edges, announces, claims =
      assemble tbl edges_tbl !announces !claims
    in
    build ~objects:(List.rev !objects) ~invs ~edges ~announces ~claims

  let pp ppf r =
    Fmt.pf ppf "@[<v>";
    Fmt.pf ppf
      "invocations %d (%d completed, %d pending)   announces %d   claims %d@,"
      r.invocations r.completed
      (r.invocations - r.completed)
      r.announces r.claims;
    Fmt.pf ppf "help edges   %d kept (%d recorded, %d stale replay echoes)@,"
      r.edges_kept r.edges_seen r.edges_stale;
    Fmt.pf ppf "help chains  ";
    if r.depth_hist = [] then Fmt.pf ppf "none"
    else
      List.iter (fun (d, c) -> Fmt.pf ppf "depth %d: %d  " d c) r.depth_hist;
    Fmt.pf ppf "(max depth %d, dag %s)@," r.max_depth
      (if r.dag_ok then "ok" else "CYCLIC");
    (match r.top_helpers with
    | [] -> Fmt.pf ppf "top helpers  none@,"
    | hs ->
        Fmt.pf ppf "top helpers  ";
        List.iter (fun (t, c) -> Fmt.pf ppf "#%d (x%d)  " t c) hs;
        Fmt.pf ppf "@,");
    List.iter
      (fun (obj, n, bound) ->
        Fmt.pf ppf "object %-16s n=%d  audited own-step bound %d@," obj n bound)
      r.objects;
    Fmt.pf ppf "own steps    max %d   help rounds max %d@," r.max_own_steps
      r.max_help_rounds;
    if r.unbounded > 0 then
      Fmt.pf ppf
        "unbounded    %d completed invocation%s on objects with no \
         registered bound@,"
        r.unbounded
        (if r.unbounded = 1 then "" else "s");
    (match r.violations with
    | [] when r.completed = 0 ->
        Fmt.pf ppf "wait-freedom audit: nothing to audit — no completed invocation"
    | [] when r.unbounded > 0 ->
        Fmt.pf ppf
          "wait-freedom audit: UNCHECKED — %d invocation%s without a bound"
          r.unbounded
          (if r.unbounded = 1 then "" else "s")
    | [] ->
        Fmt.pf ppf
          "wait-freedom audit: ok — every invocation within its bound"
    | vs ->
        Fmt.pf ppf "wait-freedom audit: %d VIOLATION%s" (List.length vs)
          (if List.length vs = 1 then "" else "S");
        List.iter
          (fun v ->
            Fmt.pf ppf "@,  trace=%d obj=%s pid=%d own_steps=%d > bound=%d"
              v.v_trace v.v_obj v.v_pid v.v_steps v.v_bound)
          vs);
    Fmt.pf ppf "@]"
end
