(* Events of a concurrent history (§2.1-§2.3).

   We record the object-side events — INVOKE(P, op, X) and
   RESPOND(P, res, X) — which is the granularity at which linearizability
   is defined.  The process-side CALL/RETURN pair is symmetric and adds
   nothing to the checker. *)

open Wfs_spec

type t =
  | Invoke of { pid : int; obj : string; op : Op.t }
  | Respond of { pid : int; obj : string; res : Value.t }

let invoke ~pid ~obj op = Invoke { pid; obj; op }
let respond ~pid ~obj res = Respond { pid; obj; res }

(* Distinguished response recorded when the operation's executor died
   (crash-stop) or raised instead of returning.  The linearizability
   decomposition treats an operation that "responded" with this marker
   as pending: it may have taken effect or not, exactly like an
   operation whose response was never recorded. *)
let crashed_res = Value.pair (Value.str "\xe2\x80\xa0") (Value.str "crashed")

let pid = function Invoke { pid; _ } | Respond { pid; _ } -> pid
let obj = function Invoke { obj; _ } | Respond { obj; _ } -> obj

let pp ppf = function
  | Invoke { pid; obj; op } -> Fmt.pf ppf "P%d INVOKE %s.%a" pid obj Op.pp op
  | Respond { pid; obj; res } ->
      Fmt.pf ppf "P%d RESPOND %s -> %a" pid obj Value.pp res
