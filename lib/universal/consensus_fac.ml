(* Fetch-and-cons from n-process consensus (§4.2, Figure 4-5) — the
   construction behind Theorem 26: any object that solves n-process
   consensus is universal.

   Shared state:
   - announce[i] : process i's most recently announced item (register);
   - round[i]    : the last consensus round process i completed;
   - prefer[i]   : process i's preference list from its latest round;
   - consensus[] : an array of single-shot consensus objects.

   A fetch-and-cons(x) by process i:
   1. announce[i] := x;
   2. scan all processes, building a goal list of announced items and
      the maximum completed round (lastRound);
   3. if lastRound is ahead of i's own round, join consensus[lastRound]
      to learn that round's winner (catch-up);
   4. for up to n further rounds: merge the goal into the winner's
      preference ("prefer[i] := goal \ prefer[winner]"), join the next
      consensus round, adopt the new winner's preference, publish the
      completed round — and return as soon as i itself wins (or after n
      losses, by which point Lemma 24 guarantees x is in the winner's
      preference).
   5. The view returned is trim(prefer[winner], x): the items that
      followed x onto the list.

   [verify] exhaustively checks Lemma 24's coherence (any two views are
   suffix-related) and that every process's item enters the list exactly
   once, over every interleaving. *)

open Wfs_spec
open Wfs_sim

let regs = "regs"
let cons = "cons"

(* register layout in the [regs] memory object *)
let announce_reg ~n:_ p = p
let round_reg ~n p = n + p
let prefer_reg ~n p = (2 * n) + p

(* local-state record, encoded as a fixed-shape list *)
type local = {
  phase : int;
  idx : int;  (* script position *)
  acc : Value.t list;  (* (item, view) decisions so far, newest first *)
  x : Value.t;  (* current tagged item *)
  p : int;  (* scan index *)
  goal : Value.t list;
  last_round : int;
  my_round : int;  (* last round this process completed (mirror of round[i]) *)
  winner : int;
  round_no : int;
  iter : int;
  view : Value.t list;  (* last read of prefer[winner] *)
}

let encode l =
  Value.list
    [
      Value.int l.phase; Value.int l.idx; Value.list l.acc; l.x;
      Value.int l.p; Value.list l.goal; Value.int l.last_round;
      Value.int l.my_round; Value.int l.winner; Value.int l.round_no;
      Value.int l.iter; Value.list l.view;
    ]

let decode v =
  match Value.as_list v with
  | [ phase; idx; acc; x; p; goal; last_round; my_round; winner; round_no;
      iter; view ] ->
      {
        phase = Value.as_int phase;
        idx = Value.as_int idx;
        acc = Value.as_list acc;
        x;
        p = Value.as_int p;
        goal = Value.as_list goal;
        last_round = Value.as_int last_round;
        my_round = Value.as_int my_round;
        winner = Value.as_int winner;
        round_no = Value.as_int round_no;
        iter = Value.as_int iter;
        view = Value.as_list view;
      }
  | _ -> invalid_arg "Consensus_fac.decode: malformed local state"

let ph_announce = 0
let ph_scan_announce = 1
let ph_scan_round = 2
let ph_merge = 3 (* read prefer[winner], then write merged prefer[i] *)
let ph_write_pref1 = 4
let ph_decide = 5
let ph_adopt = 6 (* read prefer[winner] after the round *)
let ph_write_pref2 = 7
let ph_publish = 8 (* write round[i] *)

let missing_marker = Value.str "ITEM-MISSING-FROM-VIEW"

(* The front-end for process [pid] performing one fetch-and-cons per
   script item.  Items are tagged (pid, seq) so list entries are
   unique. *)
let front_end ~n ~pid ~script =
  let script = Array.of_list script in
  let item idx = Replay.op_entry ~pid ~seq:idx script.(idx) in
  let start_op l idx =
    if idx >= Array.length script then { l with idx }
    else { l with phase = ph_announce; idx; x = item idx; p = 0; goal = [] }
  in
  let init =
    encode
      (start_op
         {
           phase = ph_announce; idx = 0; acc = []; x = Value.unit; p = 0;
           goal = []; last_round = 0; my_round = 0; winner = pid;
           round_no = 0; iter = 0; view = [];
         }
         0)
  in
  Process.make ~pid ~init (fun local_v ->
      let l = decode local_v in
      if l.idx >= Array.length script then
        Process.decide (Value.list (List.rev l.acc))
      else if l.phase = ph_announce then
        Process.invoke ~obj:regs
          (Memory.write (announce_reg ~n pid) l.x)
          (fun _ -> encode { l with phase = ph_scan_announce; p = 0; goal = [] })
      else if l.phase = ph_scan_announce then
        Process.invoke ~obj:regs
          (Memory.read (announce_reg ~n l.p))
          (fun v ->
            let goal = if Value.is_bottom v then l.goal else v :: l.goal in
            encode { l with phase = ph_scan_round; goal })
      else if l.phase = ph_scan_round then
        Process.invoke ~obj:regs
          (Memory.read (round_reg ~n l.p))
          (fun v ->
            let last_round = max l.last_round (Value.as_int v) in
            if l.p + 1 < n then
              encode { l with phase = ph_scan_announce; p = l.p + 1; last_round }
            else encode { l with phase = ph_merge; last_round; iter = 0 })
      else if l.phase = ph_merge then begin
        (* iter = 0: this operation's loop has not started yet.  If the
           scan saw a round ahead of ours, join it to learn its winner
           (catch-up); otherwise our remembered winner (or ourselves, if
           no round has ever completed) holds the latest preference. *)
        if l.iter = 0 && l.last_round > l.my_round then
          Process.invoke ~obj:cons
            (Consensus_object.decide_round l.last_round (Value.pid pid))
            (fun w ->
              encode
                {
                  l with
                  winner = Value.as_pid w;
                  round_no = l.last_round;
                  iter = 1;
                })
        else
          let l =
            if l.iter = 0 then
              {
                l with
                winner = (if l.my_round = 0 then pid else l.winner);
                round_no = l.my_round;
                iter = 1;
              }
            else l
          in
          Process.invoke ~obj:regs
            (Memory.read (prefer_reg ~n l.winner))
            (fun v ->
              let merged =
                Merge.merge ~prefix:l.goal ~suffix:(Value.as_list v)
              in
              encode { l with phase = ph_write_pref1; view = merged })
      end
      else if l.phase = ph_write_pref1 then
        Process.invoke ~obj:regs
          (Memory.write (prefer_reg ~n pid) (Value.list l.view))
          (fun _ ->
            encode
              {
                l with
                phase = ph_decide;
                round_no = max l.last_round l.round_no + 1;
              })
      else if l.phase = ph_decide then
        Process.invoke ~obj:cons
          (Consensus_object.decide_round l.round_no (Value.pid pid))
          (fun w -> encode { l with phase = ph_adopt; winner = Value.as_pid w })
      else if l.phase = ph_adopt then
        Process.invoke ~obj:regs
          (Memory.read (prefer_reg ~n l.winner))
          (fun v -> encode { l with phase = ph_write_pref2; view = Value.as_list v })
      else if l.phase = ph_write_pref2 then
        Process.invoke ~obj:regs
          (Memory.write (prefer_reg ~n pid) (Value.list l.view))
          (fun _ -> encode { l with phase = ph_publish })
      else if l.phase = ph_publish then
        Process.invoke ~obj:regs
          (Memory.write (round_reg ~n pid) (Value.int l.round_no))
          (fun _ ->
            let l = { l with my_round = l.round_no; last_round = l.round_no } in
            if l.winner = pid || l.iter >= n then begin
              (* return trim(prefer[winner], x) *)
              let view =
                match Merge.trim l.view l.x with
                | Some tail -> Value.list tail
                | None -> missing_marker
              in
              let acc = Value.pair l.x view :: l.acc in
              encode (start_op { l with acc } (l.idx + 1))
            end
            else encode { l with phase = ph_merge; iter = l.iter + 1 })
      else invalid_arg (Fmt.str "consensus-fac P%d: phase %d" pid l.phase))

(* how many consensus rounds the array must provide *)
let rounds_needed ~n ~scripts =
  let total_ops = Array.fold_left (fun acc s -> acc + List.length s) 0 scripts in
  ((n + 1) * total_ops) + 2

let config ~scripts =
  let n = Array.length scripts in
  let size = 3 * n in
  let init =
    List.init size (fun i ->
        if i < n then Value.bottom (* announce *)
        else if i < 2 * n then Value.int 0 (* round *)
        else Value.list [] (* prefer *))
  in
  let memory =
    Memory.memory ~name:regs ~ops:[ Memory.Read; Memory.Write ] ~size ~init []
  in
  let consensus_array =
    Consensus_object.array ~name:cons
      ~rounds:(rounds_needed ~n ~scripts)
      ~values:(Zoo.pids n) ()
  in
  let procs =
    Array.init n (fun pid -> front_end ~n ~pid ~script:scripts.(pid))
  in
  { Explorer.procs; env = Env.make [ (regs, memory); (cons, consensus_array) ] }

type verification = {
  ok : bool;
  states : int;
  terminals : int;
  wait_free : bool;
  failure : string option;
}

(* Decisions are lists of (item, view) pairs; the full view of an
   operation is its item prepended to its returned view. *)
let full_views_of_terminal (node : Explorer.node) =
  Array.to_list node.Explorer.decided
  |> List.concat_map (fun d ->
         match d with
         | Some (Value.List entries) ->
             List.map
               (fun e ->
                 let x, view = Value.as_pair e in
                 match view with
                 | Value.List tail -> Ok (x :: tail)
                 | v -> Error (Fmt.str "bad view %a" Value.pp v))
               entries
         | Some v -> [ Error (Fmt.str "bad decision %a" Value.pp v) ]
         | None -> [ Error "undecided at terminal" ])

let check_terminal node =
  let views = full_views_of_terminal node in
  let errors =
    List.filter_map (function Error e -> Some e | Ok _ -> None) views
  in
  match errors with
  | e :: _ -> Some e
  | [] ->
      let views = List.filter_map (function Ok v -> Some v | Error _ -> None) views in
      if not (Merge.coherent views) then
        Some
          (Fmt.str "views not coherent: %a"
             Fmt.(list ~sep:semi (brackets (list ~sep:comma Value.pp)))
             views)
      else begin
        (* no duplicates within any view *)
        let dup view =
          let sorted = List.sort Value.compare view in
          let rec adjacent = function
            | a :: (b :: _ as rest) ->
                Value.equal a b || adjacent rest
            | [ _ ] | [] -> false
          in
          adjacent sorted
        in
        if List.exists dup views then Some "duplicate entry in a view"
        else None
      end

let verify ?(max_states = 5_000_000) ~scripts () =
  let terminals = ref 0 in
  let failure = ref None in
  let on_terminal node =
    incr terminals;
    match check_terminal node with
    | Some e -> if !failure = None then failure := Some e
    | None -> ()
  in
  let stats = Explorer.explore ~max_states ~on_terminal (config ~scripts) in
  let wait_free = Explorer.wait_free stats in
  {
    ok = !failure = None && wait_free;
    states = stats.Explorer.states;
    terminals = !terminals;
    wait_free;
    failure = !failure;
  }

(* Single-schedule run for bigger n and for the benchmarks. *)
let run ?(max_steps = 1_000_000) ~scripts ~schedule () =
  let cfg = config ~scripts in
  Runner.run ~max_steps ~procs:cfg.Explorer.procs ~env:cfg.Explorer.env
    ~schedule ()

(* Extract (pid, item, full view) triples from a completed run. *)
let views_of_outcome (outcome : Runner.outcome) =
  List.concat_map
    (fun (pid, d) ->
      match d with
      | Value.List entries ->
          List.map
            (fun e ->
              let x, view = Value.as_pair e in
              (pid, x, x :: Value.as_list view))
            entries
      | _ -> [])
    outcome.Runner.decisions
