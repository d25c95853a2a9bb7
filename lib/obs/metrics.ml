(* Metrics registry: named counters, gauges and fixed-bucket
   histograms with O(1) hot-path updates and per-domain sharded
   storage.

   Layout. Every metric owns a contiguous block of int cells —
   counters and gauges one cell, histograms [n_buckets + 2] (total
   count, value sum, then the buckets) — at a registration-time offset
   into a flat array. Each domain holds its own copy of that array (its
   shard, reached through domain-local storage), so an update is:
   flag branch, DLS read, one or three int stores. No atomics, no
   locks, no false sharing between domains on the hot path.

   Determinism. [snapshot] merges the shards with order-independent
   folds only — counters and histogram cells sum, gauges take the max —
   so the collected totals are a function of the multiset of updates,
   not of which domain performed them or of shard creation order. A
   sweep whose per-instance work is deterministic therefore reports
   byte-identical counters at any [--jobs] (asserted in
   test/test_obs.ml).

   Quiescence. Shards are written racily by their owning domains;
   [snapshot] and [reset] are meant for quiescent points (between pool
   batches, after a run). Int cells never tear, so a mid-flight
   snapshot is merely stale, not corrupt. *)

type kind = Kcounter | Kgauge | Khist

type meta = { name : string; kind : kind; off : int; width : int }

(* Handles are just the meta record: the hot path reads [off] only. *)
type counter = meta
type gauge = meta
type histogram = meta

let n_buckets = 40

(* Bucket [0] holds values <= 0; bucket [i >= 1] holds
   [2^(i-1) <= v < 2^i], saturating at the last bucket. *)
let bucket_lt i = if i >= 62 then max_int else 1 lsl i

let bucket_of v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v <> 0 do
      incr i;
      v := !v lsr 1
    done;
    min !i (n_buckets - 1)
  end

let lock = Mutex.create ()
let metas : meta list ref = ref []
let total_width = ref 0
let by_name : (string, meta) Hashtbl.t = Hashtbl.create 64

let register name kind width =
  Mutex.lock lock;
  let m =
    match Hashtbl.find_opt by_name name with
    | Some m ->
        if m.kind <> kind then begin
          Mutex.unlock lock;
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered with another kind" name)
        end;
        m
    | None ->
        let m = { name; kind; off = !total_width; width } in
        total_width := !total_width + width;
        metas := m :: !metas;
        Hashtbl.add by_name name m;
        m
  in
  Mutex.unlock lock;
  m

let counter name = register name Kcounter 1
let gauge name = register name Kgauge 1
let histogram name = register name Khist (n_buckets + 2)

(* ------------------------------ shards ----------------------------- *)

type shard = { mutable cells : int array }

let shards_lock = Mutex.create ()
let shards : shard list ref = ref []

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock lock;
      let w = max 64 !total_width in
      Mutex.unlock lock;
      let s = { cells = Array.make w 0 } in
      Mutex.lock shards_lock;
      shards := s :: !shards;
      Mutex.unlock shards_lock;
      s)

(* The calling domain's shard, grown (domain-locally) when metrics were
   registered after the shard was created. Growth copies the old cells,
   so no update is lost. *)
let my_shard (m : meta) =
  let s = Domain.DLS.get shard_key in
  if Array.length s.cells < m.off + m.width then begin
    Mutex.lock lock;
    let w = !total_width in
    Mutex.unlock lock;
    let cells = Array.make (max w (m.off + m.width)) 0 in
    Array.blit s.cells 0 cells 0 (Array.length s.cells);
    s.cells <- cells
  end;
  s

(* ----------------------------- hot path ---------------------------- *)

let add (c : counter) n =
  if Obs.metrics_enabled () then begin
    let s = my_shard c in
    s.cells.(c.off) <- s.cells.(c.off) + n
  end

let incr (c : counter) = add c 1

let set (g : gauge) v =
  if Obs.metrics_enabled () then begin
    let s = my_shard g in
    s.cells.(g.off) <- v
  end

let observe (h : histogram) v =
  if Obs.metrics_enabled () then begin
    let s = my_shard h in
    s.cells.(h.off) <- s.cells.(h.off) + 1;
    s.cells.(h.off + 1) <- s.cells.(h.off + 1) + max 0 v;
    let b = h.off + 2 + bucket_of v in
    s.cells.(b) <- s.cells.(b) + 1
  end

(* ---------------------------- collection --------------------------- *)

type value =
  | Count of int
  | Level of int
  | Dist of { counts : int array; total : int; sum : int }

let cell_or_zero (s : shard) i = if i < Array.length s.cells then s.cells.(i) else 0

let snapshot () =
  Mutex.lock lock;
  let metas = !metas in
  Mutex.unlock lock;
  Mutex.lock shards_lock;
  let shards = !shards in
  Mutex.unlock shards_lock;
  let fold f init off = List.fold_left (fun acc s -> f acc (cell_or_zero s off)) init shards in
  let merged =
    List.map
      (fun m ->
        let v =
          match m.kind with
          | Kcounter -> Count (fold ( + ) 0 m.off)
          | Kgauge -> Level (fold max 0 m.off)
          | Khist ->
              Dist
                {
                  total = fold ( + ) 0 m.off;
                  sum = fold ( + ) 0 (m.off + 1);
                  counts = Array.init n_buckets (fun i -> fold ( + ) 0 (m.off + 2 + i));
                }
        in
        (m.name, v))
      metas
  in
  List.sort (fun (a, _) (b, _) -> compare a b) merged

let to_int = function Count n | Level n -> n | Dist d -> d.total

let counter_value name =
  match List.assoc_opt name (snapshot ()) with Some v -> to_int v | None -> 0

let reset () =
  Mutex.lock shards_lock;
  List.iter (fun s -> Array.fill s.cells 0 (Array.length s.cells) 0) !shards;
  Mutex.unlock shards_lock
