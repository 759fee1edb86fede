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

let pid = function Invoke { pid; _ } | Respond { pid; _ } -> pid
let obj = function Invoke { obj; _ } | Respond { obj; _ } -> obj

let pp ppf = function
  | Invoke { pid; obj; op } -> Fmt.pf ppf "P%d INVOKE %s.%a" pid obj Op.pp op
  | Respond { pid; obj; res } ->
      Fmt.pf ppf "P%d RESPOND %s -> %a" pid obj Value.pp res
