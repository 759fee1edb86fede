(** Events of a concurrent history (§2.1–§2.3): the object-side
    INVOKE/RESPOND pairs at which linearizability is defined. *)

open Wfs_spec

type t =
  | Invoke of { pid : int; obj : string; op : Op.t }
  | Respond of { pid : int; obj : string; res : Value.t }

val invoke : pid:int -> obj:string -> Op.t -> t
val respond : pid:int -> obj:string -> Value.t -> t

val pid : t -> int
val obj : t -> string
val pp : t Fmt.t
