(* Operations are encoded as [Pair (Str name, argument)].  The helpers here
   keep that convention in one place. *)

type t = Value.t

let make name arg : t = Value.Pair (Value.Str name, arg)

(* [make name] with the [Str name] tag built once and shared by every
   invocation, so a builder on a hot path allocates only the pair. *)
let maker name =
  let tag = Value.Str name in
  fun arg : t -> Value.Pair (tag, arg)

let nullary name : t = make name Value.Unit
let name (op : t) = Value.as_str (fst (Value.as_pair op))
let arg (op : t) = snd (Value.as_pair op)

let equal = Value.equal
let compare = Value.compare

let pp ppf (op : t) =
  match op with
  | Value.Pair (Value.Str n, Value.Unit) -> Fmt.string ppf n
  | Value.Pair (Value.Str n, a) -> Fmt.pf ppf "%s(%a)" n Value.pp a
  | v -> Value.pp ppf v

let show op = Fmt.str "%a" pp op
