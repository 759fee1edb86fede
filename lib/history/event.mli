(** Events of a concurrent history (§2.1–§2.3): the object-side
    INVOKE/RESPOND pairs at which linearizability is defined. *)

open Wfs_spec

type t =
  | Invoke of { pid : int; obj : string; op : Op.t }
  | Respond of { pid : int; obj : string; res : Value.t }

val invoke : pid:int -> obj:string -> Op.t -> t
val respond : pid:int -> obj:string -> Value.t -> t

(** Distinguished response value recorded for an operation whose
    executor crashed or raised mid-flight (see
    [Wfs_runtime.Recorder.around]).  [History.operations] treats an
    operation completed by this marker as {e pending}: a linearization
    may order it anywhere consistent with its invocation, or drop it —
    the §2 semantics of an operation with no response. *)
val crashed_res : Value.t

val pid : t -> int
val obj : t -> string
val pp : t Fmt.t
