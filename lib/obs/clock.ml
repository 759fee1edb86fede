(* Wall time clamped to be non-decreasing: wall clocks can step
   backwards (NTP), and the trace format promises monotonic timestamps.

   Nanoseconds are computed from the whole-second and fractional parts
   separately.  The obvious [int_of_float (gettimeofday () *. 1e9)] is
   wrong: epoch nanoseconds (~1.75e18) exceed the 53-bit double
   mantissa, so the product quantizes to multiples of ~512 ns and
   sub-microsecond spans collapse to zero or garbage.  Splitting first
   keeps the fractional part small enough that every microsecond the
   underlying clock can express survives the conversion. *)

let last = Atomic.make 0

let of_gettimeofday s =
  let whole = int_of_float s in
  (* [frac] is in [0, 1): multiplying by 1e9 stays far inside the
     mantissa, so the microsecond resolution of [gettimeofday] is
     preserved exactly. *)
  let frac = s -. float_of_int whole in
  (whole * 1_000_000_000) + int_of_float (frac *. 1e9)

let now_ns () =
  let raw = of_gettimeofday (Unix.gettimeofday ()) in
  let rec clamp () =
    let prev = Atomic.get last in
    if raw <= prev then prev
    else if Atomic.compare_and_set last prev raw then raw
    else clamp ()
  in
  clamp ()

(* Per-operation latencies need more than the microsecond [gettimeofday]
   gives, and two client domains timing their own operations should not
   contend on [last].  CLOCK_MONOTONIC (a vDSO read through bechamel's
   allocation-free stub) has nanosecond resolution and never steps
   backwards, so it needs no clamp; its epoch is arbitrary, which is
   why trace timestamps stay on [now_ns]. *)
let mono_ns () = Int64.to_int (Monotonic_clock.now ())

let elapsed_ns f =
  let t0 = mono_ns () in
  let r = f () in
  (r, mono_ns () - t0)
