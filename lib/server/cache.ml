module Metrics = Mlbs_obs.Metrics

(* Classic hashtable + intrusive doubly-linked recency list; [head] is
   MRU, [tail] LRU. All mutation happens under [lock]. *)
type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option; (* towards MRU *)
  mutable next : 'a node option; (* towards LRU *)
}

type 'a t = {
  lock : Mutex.t;
  tbl : (string, 'a node) Hashtbl.t;
  cap : int;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable len : int;
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_evictions : Metrics.counter;
  m_insertions : Metrics.counter;
  g_entries : Metrics.gauge;
}

let create ?(metrics_prefix = "server/cache") ~capacity () =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create (max 16 capacity);
    cap = capacity;
    head = None;
    tail = None;
    len = 0;
    m_hits = Metrics.counter (metrics_prefix ^ "/hits");
    m_misses = Metrics.counter (metrics_prefix ^ "/misses");
    m_evictions = Metrics.counter (metrics_prefix ^ "/evictions");
    m_insertions = Metrics.counter (metrics_prefix ^ "/insertions");
    g_entries = Metrics.gauge (metrics_prefix ^ "/entries");
  }

let capacity t = t.cap

let length t =
  Mutex.lock t.lock;
  let n = t.len in
  Mutex.unlock t.lock;
  n

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some nx -> nx.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t key =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.tbl key with
    | Some node ->
        unlink t node;
        push_front t node;
        Metrics.incr t.m_hits;
        Some node.value
    | None ->
        Metrics.incr t.m_misses;
        None
  in
  Mutex.unlock t.lock;
  r

let evict_over_capacity t =
  while t.len > t.cap do
    match t.tail with
    | None -> t.len <- 0 (* unreachable: len > 0 implies a tail *)
    | Some lru ->
        unlink t lru;
        Hashtbl.remove t.tbl lru.key;
        t.len <- t.len - 1;
        Metrics.incr t.m_evictions
  done

let add t key value =
  if t.cap > 0 then begin
    Mutex.lock t.lock;
    (match Hashtbl.find_opt t.tbl key with
    | Some node ->
        node.value <- value;
        unlink t node;
        push_front t node
    | None ->
        let node = { key; value; prev = None; next = None } in
        Hashtbl.replace t.tbl key node;
        push_front t node;
        t.len <- t.len + 1;
        Metrics.incr t.m_insertions;
        evict_over_capacity t);
    Metrics.set t.g_entries t.len;
    Mutex.unlock t.lock
  end

let to_list_mru t =
  Mutex.lock t.lock;
  let rec go acc = function
    | None -> List.rev acc
    | Some node -> go ((node.key, node.value) :: acc) node.next
  in
  let l = go [] t.head in
  Mutex.unlock t.lock;
  l

let clear t =
  Mutex.lock t.lock;
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None;
  t.len <- 0;
  Metrics.set t.g_entries 0;
  Mutex.unlock t.lock
