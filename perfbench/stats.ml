(* Clock and order statistics shared by every workload.

   All timings come from bechamel's CLOCK_MONOTONIC stub: a vDSO read
   with ns resolution and no shared state, so two client domains
   timing their own operations never contend on the clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* Quantile [q] of an ascending array.  Small samples interpolate
   linearly between ranks.  Large ones (latency runs of 10^5+ ops) take
   the mean of the samples between quantiles q-d and q+d, d = min 0.01
   ((1-q)/2): integer-ns samples crowd onto a few values near the
   median, so a single rank would read the same integer run after
   run. *)
let quantile_sorted (s : float array) q =
  let n = Array.length s in
  if n = 0 then nan
  else if n < 1000 then begin
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    if lo + 1 >= n then s.(n - 1)
    else s.(lo) +. ((h -. float_of_int lo) *. (s.(lo + 1) -. s.(lo)))
  end
  else begin
    let d = Float.min 0.01 ((1. -. q) /. 2.) in
    let rank x = max 0 (min (n - 1) (int_of_float (x *. float_of_int (n - 1)))) in
    let a = rank (q -. d) and b = rank (q +. d) in
    let sum = ref 0. in
    for i = a to b do
      sum := !sum +. s.(i)
    done;
    !sum /. float_of_int (b - a + 1)
  end

let quantile xs q = quantile_sorted (sorted_copy (Array.of_list xs)) q
let median xs = quantile xs 0.5
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let quantiles_of_ints (a : int array) qs =
  let s = Array.map float_of_int a in
  Array.sort compare s;
  List.map (quantile_sorted s) qs
