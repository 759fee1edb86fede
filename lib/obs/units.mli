(** Humanized units for terminal output, shared by [wfs top], the
    [--progress] heartbeat and the [wfs load] report. *)

(** [si 12_300_000.] is ["12.3M"]; magnitudes below 1000 keep at most
    one decimal. *)
val si : float -> string

val si_int : int -> string

(** [rate f] is [si f ^ "/s"]. *)
val rate : float -> string

(** Humanize a nanosecond duration: ["842ns"], ["1.5us"], ["12.0ms"],
    ["1.25s"]. *)
val ns : int -> string

(** [percent 0.123] is ["12.3%"]. *)
val percent : float -> string
