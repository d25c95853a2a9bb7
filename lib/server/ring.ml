(* Consistent-hash ring over backend names.

   Pure and deterministic: the placement of a key depends only on the
   member names and the replica count, never on process state, hash
   randomization, or insertion order. That is what lets the front tier,
   the tests, and an operator's offline tooling all predict the same
   owner for a key, and what bounds data movement when the member set
   changes (only keys adjacent to the joining/leaving node's points move
   — the classic consistent-hashing guarantee). *)

type t = {
  replicas : int;
  points : (int64 * string) array;  (* sorted by (unsigned hash, name) *)
  names : string list;  (* sorted, distinct *)
}

(* FNV-1a over the bytes, then the SplitMix64 finalizer to spread the
   low entropy of short, similar names ("127.0.0.1:17401#12", ...)
   across all 64 bits. Deliberately NOT [Hashtbl.hash]: its value is an
   implementation detail of the runtime, and ring placement must be
   stable across compiler versions. *)
let hash_string s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  let z = !h in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let compare_points (h1, n1) (h2, n2) =
  match Int64.unsigned_compare h1 h2 with 0 -> String.compare n1 n2 | c -> c

let create ?(replicas = 64) names =
  if replicas <= 0 then invalid_arg "Ring.create: replicas must be positive";
  let names = List.sort_uniq String.compare names in
  let points =
    Array.init (List.length names * replicas) (fun i ->
        let name = List.nth names (i / replicas) in
        (hash_string (Printf.sprintf "%s#%d" name (i mod replicas)), name))
  in
  Array.sort compare_points points;
  { replicas; points; names }

let nodes t = t.names
let is_empty t = t.names = []
let replicas t = t.replicas

(* Index of the first point at or clockwise-after [h], wrapping. *)
let point_at t h =
  let n = Array.length t.points in
  (* binary search: first index with point hash >= h (unsigned) *)
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Int64.unsigned_compare (fst t.points.(mid)) h < 0 then go (mid + 1) hi else go lo mid
  in
  let i = go 0 n in
  if i = n then 0 else i

let owner t key =
  if is_empty t then None else Some (snd t.points.(point_at t (hash_string key)))

let add t name = create ~replicas:t.replicas (name :: t.names)
let remove t name = create ~replicas:t.replicas (List.filter (( <> ) name) t.names)
