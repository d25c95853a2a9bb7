(** Immutable undirected graphs over nodes [0 .. n-1], CSR-style.

    This is the topology substrate shared by the WSN network layer, the
    schedulers and the radio simulator. Adjacency is stored as sorted
    arrays (compressed sparse rows) for cache-friendly neighbour scans,
    plus per-node [Bitset]s for O(1) membership and O(words) neighbour
    intersections — the conflict test [N(u) ∩ N(v) ∩ W̄ ≠ ∅] runs
    millions of times per experiment. *)

type t

(** [of_edges ~n edges] builds the graph with node count [n] from an
    undirected edge list. Self-loops are rejected, duplicates collapse.
    Raises [Invalid_argument] for endpoints outside [0, n). *)
val of_edges : n:int -> (int * int) list -> t

(** [of_adjacency adj] builds from an explicit neighbour list per node
    (must be symmetric; raises [Invalid_argument] if not). Duplicates
    collapse. *)
val of_adjacency : int list array -> t

(** [of_rows rows] builds from neighbour rows that are already
    canonical: row [u] is [N(u)] in strictly ascending order. Checks
    ranges, self-loops, order and symmetry in O(n + m) and raises
    [Invalid_argument] on any violation. The graph takes ownership of
    [rows]: callers must not mutate them afterwards. *)
val of_rows : int array array -> t

(** [n_nodes g] is the node count. *)
val n_nodes : t -> int

(** [n_edges g] is the undirected edge count. *)
val n_edges : t -> int

(** [degree g u] is [|N(u)|]. *)
val degree : t -> int -> int

(** [neighbors g u] is the sorted neighbour array of [u]. The returned
    array is the internal one: callers must not mutate it. *)
val neighbors : t -> int -> int array

(** [neighbor_set g u] is [N(u)] as a bit set (internal, do not
    mutate). *)
val neighbor_set : t -> int -> Mlbs_util.Bitset.t

(** [mem_edge g u v] is O(log degree) edge membership. *)
val mem_edge : t -> int -> int -> bool

(** [iter_neighbors g u ~f] applies [f] to each neighbour of [u]. *)
val iter_neighbors : t -> int -> f:(int -> unit) -> unit

(** [fold_neighbors g u ~init ~f] folds over neighbours of [u]. *)
val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

(** [edges g] lists each undirected edge once as [(u, v)] with
    [u < v]. *)
val edges : t -> (int * int) list

(** [max_degree g] is the maximum degree, 0 for an empty graph. *)
val max_degree : t -> int

(** [common_neighbor_in g u v ~candidates] is [true] iff some node in
    [candidates] is adjacent to both [u] and [v] — the paper's conflict
    predicate with [candidates = W̄]. Allocation-free. *)
val common_neighbor_in : t -> int -> int -> candidates:Mlbs_util.Bitset.t -> bool

(** [digest g] is a canonical 64-bit digest of the labelled adjacency:
    two graphs digest equal iff they have the same node count and the
    same edge set, however they were presented — edge-list order,
    duplicate edges and [of_edges]-vs-[of_adjacency] construction all
    collapse to the same value, while flipping a single edge changes
    it (with overwhelming probability). This is the content-address
    primitive of the scheduling service's schedule cache. *)
val digest : t -> int64

(** [mix h x] folds [x] into the digest state [h] — {!digest}'s mixing
    step, for digests that extend the graph's. *)
val mix : int64 -> int64 -> int64

(** [edit g ~add ~remove ~rewire] is [g] with the delta applied, node
    count unchanged: [remove]d edges dropped first, then each
    [(u, nbrs)] in [rewire] replaces [u]'s entire neighbourhood (in
    list order — one consistent entry per moved node makes the order
    irrelevant), then [add]ed edges inserted. Duplicates collapse;
    self-loops and out-of-range endpoints raise [Invalid_argument].
    This is the churn primitive behind the scheduling service's delta
    requests: the edited graph's {!digest} is the content address of
    the schedule served for the delta (see lib/server). *)
val edit :
  t ->
  add:(int * int) list ->
  remove:(int * int) list ->
  rewire:(int * int list) list ->
  t

(** [diff_endpoints a b] is the sorted list of nodes whose neighbour
    sets differ between [a] and [b] — both endpoints of every changed
    edge. A memoised search value for informed set [W] survives a
    topology delta iff every one of these nodes is inside [W] (the
    search below [W] never looks at an edge between two informed
    nodes), which is exactly the re-validation predicate the
    reschedule engine feeds to the seeded search. Raises
    [Invalid_argument] when node counts differ. *)
val diff_endpoints : t -> t -> int list

(** [pp] prints a summary "graph(n=…, m=…)". *)
val pp : Format.formatter -> t -> unit
