(** Operation encoding.

    An operation invocation is a {!Value.t} of the shape
    [Pair (Str name, argument)].  All object specifications in the zoo
    accept and pattern-match this shape. *)

type t = Value.t

(** [make name arg] builds the invocation [name(arg)]. *)
val make : string -> Value.t -> t

(** [maker name] is [make name], except that every invocation it builds
    shares one [Str name] tag: the same values, one allocation fewer. *)
val maker : string -> Value.t -> t

(** [nullary name] is [make name Value.unit]. *)
val nullary : string -> t

(** [name op] extracts the operation name; raises on malformed values. *)
val name : t -> string

(** [arg op] extracts the operation argument. *)
val arg : t -> Value.t

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t
val show : t -> string
