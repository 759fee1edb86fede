(* Humanized units for terminal output: "12.3M states", "1.2 Gops/s",
   "842 µs".  Shared by `wfs top`, the `--progress` heartbeat and the
   load report. *)

let si f =
  let a = Float.abs f in
  let scaled, suffix =
    if a >= 1e12 then (f /. 1e12, "T")
    else if a >= 1e9 then (f /. 1e9, "G")
    else if a >= 1e6 then (f /. 1e6, "M")
    else if a >= 1e3 then (f /. 1e3, "k")
    else (f, "")
  in
  if suffix = "" then
    if Float.is_integer scaled then Printf.sprintf "%.0f" scaled
    else Printf.sprintf "%.1f" scaled
  else if Float.abs scaled >= 100.0 then
    Printf.sprintf "%.0f%s" scaled suffix
  else Printf.sprintf "%.1f%s" scaled suffix

let si_int n = si (float_of_int n)
let rate f = si f ^ "/s"

let ns n =
  let f = float_of_int n in
  if f >= 1e9 then Printf.sprintf "%.2fs" (f /. 1e9)
  else if f >= 1e6 then Printf.sprintf "%.1fms" (f /. 1e6)
  else if f >= 1e3 then Printf.sprintf "%.1fus" (f /. 1e3)
  else Printf.sprintf "%dns" n

let percent f = Printf.sprintf "%.1f%%" (f *. 100.0)
