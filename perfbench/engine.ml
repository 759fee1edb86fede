(* The impossibility-side workloads: the bounded solver behind
   [Census.measure] and the exhaustive explorer behind
   [Protocol.verify].  Both engines are deterministic at j=1, so every
   count they export repeats exactly from run to run; only times
   move.  Their inputs are the fixed tables of [Expected], the same for
   every seed, and the calls run in table order: the heap a call leaves
   behind shapes the next one's high-water mark. *)

open Wfs
module W = Workload

(* A pass makes one call per item, times each call from outside, and
   checks every result after the pass, off the clock.  Each call starts
   from a compacted heap, as a fresh [wfs census] or [wfs verify]
   process would, so the heap peak and the GC work of a call do not
   depend on the calls before it; the compactions are off the clock and
   the pass time is the sum of the calls' times. *)
let run_calls ~traced ~layer ~label ~call ~check items =
  let n = List.length items in
  let lats = Array.make n 0 in
  let compact_ns = ref 0 in
  let pass_id = if traced then W.fresh_id () else -1 in
  let t0 = Stats.now_ns () in
  let results =
    List.mapi
      (fun i item ->
        let c = Stats.now_ns () in
        Gc.compact ();
        let a = Stats.now_ns () in
        compact_ns := !compact_ns + (a - c);
        let r = call item in
        let b = Stats.now_ns () in
        lats.(i) <- b - a;
        if traced then begin
          ignore (W.add_span ~parent:pass_id "harness.compact" c a);
          ignore (W.add_span ~parent:pass_id (layer ^ ":" ^ label item) a b)
        end;
        r)
      items
  in
  let t1 = Stats.now_ns () in
  if traced then ignore (W.add_span ~id:pass_id "pass" t0 t1);
  let failed =
    List.fold_left2
      (fun acc item r ->
        match check item r with
        | [] -> acc
        | errs ->
            List.iter prerr_endline errs;
            acc + 1)
      0 items results
  in
  let busy = Array.fold_left ( + ) 0 lats in
  ( W.pass ~wall_ns:busy ~lats ~attempted:n ~failed ~covered_ns:busy
      ~span_wall_ns:(t1 - t0 - !compact_ns)
      ~peak_words:(Gc.quick_stat ()).top_heap_words ~note:"",
    lats )

(* Per-layer accounting shared by both engines: per-item times and
   counter deltas over the traced passes, plus GC figures. *)
type acc = {
  item_ns : (string, float list) Hashtbl.t;
  mutable passes : int;
  mutable calls : int;
  mutable busy_ns : int;
  mutable minor_words : float;
  mutable major : int;
  mutable base : (string * int) list;
}

let new_acc () =
  {
    item_ns = Hashtbl.create 32;
    passes = 0;
    calls = 0;
    busy_ns = 0;
    minor_words = 0.;
    major = 0;
    base = [];
  }

let snapshot names = List.map (fun n -> (n, W.counter n)) names
let delta acc name = W.counter name - List.assoc name acc.base

(* Wraps a traced pass with the accounting above. *)
let accounted acc ~label items (f : unit -> W.pass * int array) () =
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).major_collections in
  let p, lats = f () in
  acc.minor_words <- acc.minor_words +. (Gc.minor_words () -. w0);
  acc.major <- acc.major + ((Gc.quick_stat ()).major_collections - m0);
  acc.passes <- acc.passes + 1;
  acc.calls <- acc.calls + p.attempted;
  acc.busy_ns <- acc.busy_ns + p.covered_ns;
  List.iteri
    (fun i item ->
      let k = label item in
      let prev = Option.value ~default:[] (Hashtbl.find_opt acc.item_ns k) in
      Hashtbl.replace acc.item_ns k (float_of_int lats.(i) :: prev))
    items;
  p

let gc_layers acc =
  [
    ("gc.minor_words_per_op", acc.minor_words /. float_of_int (max 1 acc.calls));
    ("gc.major_collections", float_of_int acc.major /. float_of_int (max 1 acc.passes));
  ]

let item_layers acc prefix =
  Hashtbl.fold
    (fun k ns l -> (prefix ^ k, Stats.median ns *. 1e-9) :: l)
    acc.item_ns []

let per_pass acc n = float_of_int n /. float_of_int (max 1 acc.passes)

(* {1 Census} *)

let solver_counters =
  [
    "solver.nodes";
    "solver.cutoff.sleep";
    "solver.view_intern.hits";
    "solver.view_intern.lookups";
    "solver.tt.hits";
    "solver.tt.misses";
    "solver.tt.footprint_rejects";
    "solver.tt.backjumps";
  ]

(* A capped row's node count is fixed by its budget, so its time per
   node isolates per-node cost. *)
let capped (e : Expected.census_row) = e.two.outcome = Census.Budget

let census ~name (rows : Expected.census_row list) =
  let acc = new_acc () in
  let capped_nodes = ref 0 in
  let label ((e : Expected.census_row), _) = e.obj in
  let prepare ~seed:_ ~pass:_ ~traced =
    let items = List.map (fun (e : Expected.census_row) -> (e, Zoo.find e.obj)) rows in
    let f () =
      run_calls ~traced ~layer:"census.measure" ~label
        ~call:(fun ((e : Expected.census_row), spec) ->
          Census.measure ~max_nodes:e.max_nodes spec)
        ~check:(fun (e, _) m ->
          if traced && capped e then
            capped_nodes := !capped_nodes + snd m.two_proc + snd m.three_proc;
          Expected.check_census e m)
        items
    in
    if traced then accounted acc ~label items f else fun () -> fst (f ())
  in
  let layers () =
    let nodes = delta acc "solver.nodes" in
    [
      ("solver.nodes", per_pass acc nodes);
      ("solver.ns_per_node", W.ratio acc.busy_ns nodes);
      ("solver.sleep_cutoffs", per_pass acc (delta acc "solver.cutoff.sleep"));
      ( "solver.view_intern.hit_rate",
        W.ratio (delta acc "solver.view_intern.hits")
          (delta acc "solver.view_intern.lookups") );
      ( "tt.hit_rate",
        let h = delta acc "solver.tt.hits" in
        W.ratio h (h + delta acc "solver.tt.misses") );
      ("tt.footprint_rejects_per_node", W.ratio (delta acc "solver.tt.footprint_rejects") nodes);
      ("tt.backjumps", per_pass acc (delta acc "solver.tt.backjumps"));
      ( "solver.ns_per_node.capped",
        let capped_ns =
          List.fold_left
            (fun a e ->
              if capped e then
                a +. List.fold_left ( +. ) 0. (Option.value ~default:[] (Hashtbl.find_opt acc.item_ns e.obj))
              else a)
            0. rows
        in
        capped_ns /. float_of_int (max 1 !capped_nodes) );
    ]
    @ item_layers acc "census.row_s."
    @ gc_layers acc
  in
  {
    W.name;
    prepare;
    begin_traced = (fun () -> acc.base <- snapshot solver_counters);
    layers;
    info = (fun () -> []);
  }

(* {1 Verify} *)

let explorer_counters =
  [
    "explorer.por.pruned";
    "explorer.intern.hits";
    "explorer.intern.lookups";
    "explorer.dedup_hits";
    "explorer.dedup_lookups";
  ]

let protocol_label ((e : Expected.verify_row), _) = Printf.sprintf "%s-n%d" e.key e.n

let verify ~name (rows : Expected.verify_row list) =
  let acc = new_acc () in
  let states = ref 0 in
  let prepare ~seed:_ ~pass:_ ~traced =
    let items =
      List.map
        (fun (e : Expected.verify_row) ->
          match (Registry.find e.key).build ~n:e.n with
          | Some p -> (e, p)
          | None -> failwith (Printf.sprintf "no %s protocol at n=%d" e.key e.n))
        rows
    in
    let f () =
      run_calls ~traced ~layer:"protocol.verify" ~label:protocol_label
        ~call:(fun (_, p) -> Protocol.verify p)
        ~check:(fun (e, _) r ->
          if traced then states := !states + r.Protocol.states;
          Expected.check_verify e r)
        items
    in
    if traced then accounted acc ~label:protocol_label items f else fun () -> fst (f ())
  in
  let layers () =
    [
      ("explorer.states", per_pass acc !states);
      ("explorer.ns_per_state", W.ratio acc.busy_ns !states);
      ("explorer.por.pruned_per_state", W.ratio (delta acc "explorer.por.pruned") !states);
      ( "explorer.intern.hit_rate",
        W.ratio (delta acc "explorer.intern.hits") (delta acc "explorer.intern.lookups") );
      ( "explorer.dedup_hit_rate",
        W.ratio (delta acc "explorer.dedup_hits") (delta acc "explorer.dedup_lookups") );
    ]
    @ item_layers acc "verify.protocol_s."
    @ gc_layers acc
  in
  {
    W.name;
    prepare;
    begin_traced = (fun () -> acc.base <- snapshot explorer_counters);
    layers;
    info = (fun () -> []);
  }
