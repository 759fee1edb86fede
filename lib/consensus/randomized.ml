(* Randomized wait-free consensus from read/write registers — the open
   problem the paper's §5 points at ("the use of randomization [1] for
   wait-free concurrent objects remains unexplored"; [1] is Abrahamson,
   PODC 1988).

   Theorem 2 forbids DETERMINISTIC wait-free 2-process consensus from
   registers.  Randomization escapes it: agreement and validity hold on
   every execution, and termination holds with probability 1.

   Two-process algorithm ("racing flags"), one single-writer register
   per process, initially ⊥:

     write my preference to R_me
     loop:
       q := read R_other
       if q = ⊥          then decide my preference   (the rival started
                              after my write, so it will read my flag
                              and can only converge to it)
       if q = preference then decide it              (both flags equal:
                              neither can ever flip again)
       otherwise              flip a coin for a new preference,
                              write it, loop

   Safety sketch (machine-checked below): a decision freezes the
   decider's register; two conflicting decisions would need each
   register frozen at a different value *before* the other's deciding
   read, which contradicts whichever freeze came second.  The ⊥ case
   cannot fire for both processes because each writes before it reads.

   In the simulator, coins are modelled adversarially: each process is
   given a fixed finite coin sequence, and [verify_all_coins] checks
   agreement and validity over EVERY schedule of EVERY coin assignment
   of a given length.  A process that exhausts its coins while still in
   conflict "aborts" (decides a sentinel); safety quantifies over the
   real decisions, and the probability of aborting vanishes with the
   sequence length — that is exactly "terminates with probability 1"
   made finite. *)

open Wfs_spec
open Wfs_sim

let reg = "flags"

let aborted = Value.str "coins-exhausted"

(* local state: (pc, pref, coins) *)
let encode pc pref coins =
  Value.pair (Value.int pc) (Value.pair (Value.bool pref) (Value.list coins))

let decode local =
  let pc, rest = Value.as_pair local in
  let pref, coins = Value.as_pair rest in
  (Value.as_int pc, Value.truth pref, Value.as_list coins)

let ph_write = 0
let ph_read = 1

let proc ~pid ~input ~coins =
  let rival = 1 - pid in
  Process.make ~pid
    ~init:(encode ph_write input (List.map Value.bool coins))
    (fun local ->
      let pc, pref, coins = decode local in
      if pc = ph_write then
        Process.invoke ~obj:reg
          (Memory.write pid (Value.bool pref))
          (fun _ -> encode ph_read pref coins)
      else if pc = ph_read then
        Process.invoke ~obj:reg (Memory.read rival) (fun q ->
            if Value.is_bottom q then
              (* other not started: safe to decide; encode the decision
                 as a final pc so the next activation decides *)
              encode 2 pref coins
            else if Value.equal q (Value.bool pref) then encode 2 pref coins
            else begin
              match coins with
              | [] -> encode 3 pref [] (* abort *)
              | c :: rest -> encode ph_write (Value.truth c) rest
            end)
      else if pc = 2 then Process.decide (Value.bool pref)
      else Process.decide aborted)

let config ~inputs ~coins =
  let spec =
    Memory.memory ~name:reg ~ops:[ Memory.Read; Memory.Write ] ~size:2
      ~init:[ Value.bottom; Value.bottom ]
      [ Value.bool false; Value.bool true ]
  in
  let procs =
    Array.init 2 (fun pid ->
        proc ~pid ~input:inputs.(pid) ~coins:coins.(pid))
  in
  { Explorer.procs; env = Env.make [ (reg, spec) ] }

(* All coin lists of length [flips]. *)
let rec coin_lists flips =
  if flips = 0 then [ [] ]
  else
    let shorter = coin_lists (flips - 1) in
    List.map (fun l -> true :: l) shorter
    @ List.map (fun l -> false :: l) shorter

let check_terminal ~inputs (node : Explorer.node) =
  let decisions = Array.to_list node.Explorer.decided |> List.map Option.get in
  let real = List.filter (fun d -> not (Value.equal d aborted)) decisions in
  let valid v =
    Array.exists (fun input -> Value.equal (Value.bool input) v) inputs
  in
  match real with
  | [] -> Ok `Aborted
  | [ v ] -> if valid v then Ok `Decided else Error (Fmt.str "invalid %a" Value.pp v)
  | v :: rest ->
      if not (List.for_all (Value.equal v) rest) then
        Error
          (Fmt.str "disagreement: %a"
             Fmt.(list ~sep:comma Value.pp)
             decisions)
      else if valid v then Ok `Decided
      else Error (Fmt.str "invalid %a" Value.pp v)

(* Exhaustive safety check: all schedules x all coin assignments of the
   given length x all input combinations. *)
let check_flips fn flips =
  if flips < 0 then
    invalid_arg (Fmt.str "Randomized.%s: flips must be >= 0 (got %d)" fn flips)

let verify_all_coins ?(flips = 3) () =
  check_flips "verify_all_coins" flips;
  let coin_choices = coin_lists flips in
  let aborts = ref false in
  let verdicts =
    List.concat_map
      (fun (i0, i1) ->
        let inputs = [| i0; i1 |] in
        let terminal node =
          Result.map
            (function `Aborted -> aborts := true | `Decided -> ())
            (check_terminal ~inputs node)
        in
        List.concat_map
          (fun c0 ->
            List.map
              (fun c1 ->
                Explorer.check (config ~inputs ~coins:[| c0; c1 |]) ~terminal)
              coin_choices)
          coin_choices)
      [ (false, false); (false, true); (true, false); (true, true) ]
  in
  (Explorer.all verdicts, List.length verdicts, !aborts)

(* One run under a seeded schedule, for demos; abort probability decays
   with [flips]. *)
let run ?(flips = 20) ~inputs ~seed () =
  check_flips "run" flips;
  let state = ref (seed * 2654435761) in
  let coin () =
    state := (!state * 1103515245) + 12345;
    !state land 0x10000 <> 0
  in
  let coins = [| List.init flips (fun _ -> coin ()); List.init flips (fun _ -> coin ()) |] in
  let cfg = config ~inputs ~coins in
  Runner.run ~procs:cfg.Explorer.procs ~env:cfg.Explorer.env
    ~schedule:(Scheduler.random ~seed) ()
