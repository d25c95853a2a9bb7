(** Breadth-first search: hop distances, layers, parents.

    BFS drives the baseline schedulers (layer-synchronised broadcast of
    [2] and [12]), the admissible lower bound of the M-counter search
    (hop distance from the informed set to the farthest uninformed
    node), and single-source eccentricities (source selection takes all
    of them at once from the bit-parallel {!Metrics.eccentricities}, for
    which {!eccentricity} is the test oracle). *)

(** Result of a BFS: [dist.(v)] is the hop distance from the source set
    ([max_int] when unreachable); [parent.(v)] is a predecessor on a
    shortest path ([-1] for sources and unreachable nodes). *)
type result = { dist : int array; parent : int array }

(** [run g ~source] is single-source BFS. *)
val run : Graph.t -> source:int -> result

(** [run_multi g ~sources] is BFS from a set of sources at distance 0 —
    used to lower-bound remaining broadcast time from an informed set. *)
val run_multi : Graph.t -> sources:int list -> result

(** Caller-owned BFS workspace for the allocation-free variant below:
    a distance array and a flat ring queue, both sized to the node
    count. One scratch serves any number of successive runs. *)
type scratch

(** [scratch n] allocates a workspace for graphs of up to [n] nodes. *)
val scratch : int -> scratch

(** [scratch_capacity sc] is the node count [sc] was sized for. *)
val scratch_capacity : scratch -> int

(** [run_multi_into sc g ~sources] runs multi-source BFS from the member
    set of [sources], writing hop distances into [sc] (no parents, no
    allocation). Raises [Invalid_argument] if [sc] is too small. *)
val run_multi_into : scratch -> Graph.t -> sources:Mlbs_util.Bitset.t -> unit

(** [max_dist_from sc ~within] is the maximum distance recorded by the
    last [run_multi_into] over the members of [within] — 0 when empty,
    [max_int] if any member was not reached. *)
val max_dist_from : scratch -> within:Mlbs_util.Bitset.t -> int

(** [layers g ~source] groups nodes by hop distance: element [k] is the
    sorted list of nodes at distance [k]. Unreachable nodes are
    omitted. *)
val layers : Graph.t -> source:int -> int list list

(** [eccentricity g ~source] is the maximum finite hop distance from
    [source]; raises [Invalid_argument] if some node is unreachable
    (callers should check connectivity first). *)
val eccentricity : Graph.t -> source:int -> int

(** [max_dist_in r ~within] is the maximum distance in [r] over the
    members of [within], or 0 when [within] is empty; [max_int] if any
    member is unreachable. *)
val max_dist_in : result -> within:Mlbs_util.Bitset.t -> int
