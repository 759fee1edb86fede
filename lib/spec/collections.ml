(* Set and list objects (§3.3 mentions sets and lists among the types that
   solve 2-process consensus but not 3).  The set keeps its elements
   sorted so states are canonical; remove is made deterministic by always
   removing the least element, the paper's own suggestion (§4.1: implement
   a non-deterministic remove by a deterministic choice). *)

let insert x = Op.make "insert" x
let remove = Op.nullary "remove"
let remove_elt x = Op.make "remove-elt" x
let member x = Op.make "member" x
let size = Op.nullary "size"

let empty_result = Value.str "empty"

let set ?(name = "set") ?(initial = []) ~elements () =
  let canonical vs = List.sort_uniq Value.compare vs in
  let apply state op =
    let contents = Value.as_list state in
    match Op.name op with
    | "insert" ->
        let x = Op.arg op in
        let present = List.exists (Value.equal x) contents in
        (Value.list (canonical (x :: contents)), Value.bool (not present))
    | "remove" -> (
        (* Deterministic choice: remove the least element. *)
        match contents with
        | [] -> (state, empty_result)
        | x :: rest -> (Value.list rest, x))
    | "remove-elt" ->
        let x = Op.arg op in
        let present = List.exists (Value.equal x) contents in
        let rest = List.filter (fun y -> not (Value.equal x y)) contents in
        (Value.list rest, Value.bool present)
    | "member" ->
        (state, Value.bool (List.exists (Value.equal (Op.arg op)) contents))
    | "size" -> (state, Value.int (List.length contents))
    | _ -> raise (Object_spec.Unknown_operation { obj = name; op })
  in
  let menu =
    remove :: List.concat_map (fun x -> [ insert x; member x ]) elements
  in
  Object_spec.make ~name ~init:(Value.list (canonical initial)) ~apply ~menu

(* A shared counter: increment/decrement/read.  Increment returns the new
   value, making concurrent increments observably ordered. *)
let counter ?(name = "counter") ?(init = 0) () =
  let apply state op =
    let n = Value.as_int state in
    match Op.name op with
    | "incr" -> (Value.int (n + 1), Value.int (n + 1))
    | "decr" -> (Value.int (n - 1), Value.int (n - 1))
    | "read" -> (state, state)
    | _ -> raise (Object_spec.Unknown_operation { obj = name; op })
  in
  let menu = [ Op.nullary "incr"; Op.nullary "decr"; Op.nullary "read" ] in
  Object_spec.make ~name ~init:(Value.int init) ~apply ~menu

let incr = Op.nullary "incr"
let decr = Op.nullary "decr"
let read = Op.nullary "read"

(* A key→value map — the "map" shape of the universal object service
   (registers generalized to a keyed store; Corollary 10 still applies:
   registers alone cannot implement it wait-free for n ≥ 2 because it
   embeds the counter via put/get on one key).  The state is the
   canonical encoding [List [Pair (k, v); ...]] sorted by key, so equal
   abstract maps have equal representations.  [put]/[del] return the
   displaced value ([Value.none] when the key was absent) so concurrent
   writers are observably ordered.

   [apply] works on the encoding directly, because the wait-free
   construction replays it on every operation: [get] is a walk that
   allocates only its result, and [put]/[del] rebuild the prefix up to
   the key and share the untouched suffix with the old state. *)

let put_op = Op.maker "put"
let put k v = put_op (Value.pair k v)
let get = Op.maker "get"
let del = Op.maker "del"

let kv_map ?(name = "kv-map") ?(initial = [])
    ?(keys = [ Value.str "a"; Value.str "b" ])
    ?(values = [ Value.int 0; Value.int 1; Value.int 2 ]) () =
  let initial = List.sort (fun (a, _) (b, _) -> Value.compare a b) initial in
  let rec check_distinct = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if Value.equal a b then
          invalid_arg (Fmt.str "Collections.kv_map: duplicate key %a" Value.pp a);
        check_distinct rest
    | _ -> ()
  in
  check_distinct initial;
  let not_binding () = invalid_arg "Value.as_pair: not a pair" in
  let rec lookup k = function
    | [] -> Value.none
    | Value.Pair (k', v) :: rest ->
        if Value.equal k k' then Value.some v else lookup k rest
    | _ -> not_binding ()
  in
  (* Sorted insert-or-replace of the binding [kv] (a [Pair (k, _)]);
     the replaced value, if any, goes to [displaced]. *)
  let rec insert k kv displaced = function
    | [] -> [ kv ]
    | (Value.Pair (k', v') as b) :: rest as bindings ->
        let c = Value.compare k k' in
        if c < 0 then kv :: bindings
        else if c = 0 then begin
          displaced := Value.some v';
          kv :: rest
        end
        else b :: insert k kv displaced rest
    | _ -> not_binding ()
  in
  (* Removes the binding of [k]; raises [Not_found] when there is none. *)
  let rec remove k displaced = function
    | [] -> raise Not_found
    | (Value.Pair (k', v') as b) :: rest ->
        let c = Value.compare k k' in
        if c < 0 then raise Not_found
        else if c = 0 then begin
          displaced := Value.some v';
          rest
        end
        else b :: remove k displaced rest
    | _ -> not_binding ()
  in
  let apply state op =
    let bindings = Value.as_list state in
    match Op.name op with
    | "get" -> (state, lookup (Op.arg op) bindings)
    | "put" -> (
        match Op.arg op with
        | Value.Pair (k, _) as kv ->
            let displaced = ref Value.none in
            let bindings = insert k kv displaced bindings in
            (Value.list bindings, !displaced)
        | _ -> not_binding ())
    | "del" -> (
        let displaced = ref Value.none in
        match remove (Op.arg op) displaced bindings with
        | bindings -> (Value.list bindings, !displaced)
        | exception Not_found -> (state, Value.none))
    | _ -> raise (Object_spec.Unknown_operation { obj = name; op })
  in
  let menu =
    List.concat_map
      (fun k -> get k :: del k :: List.map (fun v -> put k v) values)
      keys
  in
  let init = Value.list (List.map (fun (k, v) -> Value.pair k v) initial) in
  Object_spec.make ~name ~init ~apply ~menu
