(** Set and counter objects.

    The set's state is kept sorted so equal abstract sets have equal
    representations; its argumentless [remove] is made deterministic by
    removing the least element (the paper's own recipe for implementing a
    non-deterministic operation with a deterministic choice, §4.1). *)

val empty_result : Value.t

(** {1 Invocation builders} *)

val insert : Value.t -> Op.t

(** Remove the least element (deterministic non-specific remove). *)
val remove : Op.t

(** Remove a specific element; result says whether it was present. *)
val remove_elt : Value.t -> Op.t

val member : Value.t -> Op.t
val size : Op.t
val incr : Op.t
val decr : Op.t
val read : Op.t

(** {1 Objects} *)

val set :
  ?name:string -> ?initial:Value.t list -> elements:Value.t list -> unit ->
  Object_spec.t

(** Shared counter whose [incr]/[decr] return the new value. *)
val counter : ?name:string -> ?init:int -> unit -> Object_spec.t

val put : Value.t -> Value.t -> Op.t
val get : Value.t -> Op.t
val del : Value.t -> Op.t

(** Key→value map whose state is the key-sorted list
    [List [Pair (k, v); ...]]; [get] returns [Value.some v], and [put]
    and [del] return the displaced value the same way, all three
    [Value.none] for an absent key.  The third default object of the
    universal object service.

    @raise Invalid_argument if two bindings of [initial] share a key. *)
val kv_map :
  ?name:string ->
  ?initial:(Value.t * Value.t) list ->
  ?keys:Value.t list ->
  ?values:Value.t list ->
  unit ->
  Object_spec.t
