(* A single universal value domain shared by the whole simulation layer.

   Every object state, operation argument and operation result in the
   simulated world is a [Value.t].  Using one closed universe keeps the
   generic tooling (exhaustive explorer, solver, linearizability checker)
   monomorphic and hashable; the typed multicore runtime in [wfs_runtime]
   does not use it. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list
[@@deriving eq, ord]

let unit = Unit
let bool b = Bool b
let int i = Int i
let str s = Str s
let pair a b = Pair (a, b)
let list vs = List vs

(* Conventional encodings used across the library. *)

let bottom = Str "_|_"
let is_bottom v = equal v bottom

let none = List []
let some v = List [ v ]

let to_option = function
  | List [] -> None
  | List [ v ] -> Some v
  | v -> invalid_arg (Fmt.str "Value.to_option: %d" (Hashtbl.hash v))

let of_option = function None -> none | Some v -> some v

let truth = function
  | Bool b -> b
  | v -> invalid_arg (Fmt.str "Value.truth: not a bool (tag %d)" (Hashtbl.hash v))

let as_int = function
  | Int i -> i
  | _ -> invalid_arg "Value.as_int: not an int"

let as_str = function
  | Str s -> s
  | _ -> invalid_arg "Value.as_str: not a string"

let as_pair = function
  | Pair (a, b) -> (a, b)
  | _ -> invalid_arg "Value.as_pair: not a pair"

let as_list = function
  | List vs -> vs
  | _ -> invalid_arg "Value.as_list: not a list"

let rec pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Str s -> Fmt.pf ppf "%S" s
  | Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp a pp b
  | List vs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") pp) vs

let show v = Fmt.str "%a" pp v

let hash (v : t) = Hashtbl.hash v

(* Full-depth structural hash.

   [Hashtbl.hash] samples a bounded prefix of the structure (at most 10
   meaningful nodes by default), so large keys — the solver's views
   (response lists that deepen with every operation) and environment
   encodings — collide pathologically: values differing only deep in
   the encoding all land in one bucket and every probe degenerates into
   a deep structural comparison.  [hash_full] folds over the entire value
   (FNV-1a over constructor tags and payloads), making hash-table
   lookups on joint states O(size of key) with near-perfect bucket
   spread. *)

let[@inline] fnv_mix h x = ((h lxor x) * 0x01000193) land max_int

let rec hash_fold h = function
  | Unit -> fnv_mix h 1
  | Bool false -> fnv_mix h 2
  | Bool true -> fnv_mix h 3
  | Int i -> fnv_mix (fnv_mix h 4) i
  | Str s ->
      let h = ref (fnv_mix (fnv_mix h 5) (String.length s)) in
      String.iter (fun c -> h := fnv_mix !h (Char.code c)) s;
      !h
  | Pair (a, b) -> hash_fold (hash_fold (fnv_mix h 6) a) b
  | List vs -> List.fold_left hash_fold (fnv_mix h 7) vs

let hash_full v = hash_fold 0x811c9dc5 v

(* Hash table keyed by values with the full-depth hash: equal values
   collide only with genuinely equal values, never by prefix-sampling. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash_full
end)

(* Process identifiers are plain ints in the simulated world; a decision
   value in a consensus protocol is the identifier of the elected process,
   matching the paper's "consensus as election" convention. *)

let pid (p : int) = Int p
let as_pid = as_int
