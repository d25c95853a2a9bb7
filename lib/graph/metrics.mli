(** Whole-graph metrics used by deployments and the experiment reports:
    diameter, radius, eccentricities, average degree. *)

(** [eccentricities g] is the per-node eccentricity of a connected
    graph. Raises [Invalid_argument] when disconnected. A bit-parallel
    BFS from all sources at once, one machine word of sources (62 on a
    64-bit host) per pass: O(⌈n/62⌉·e·(n + m)) word operations, where
    [e] is the largest eccentricity in the pass, and O(n) scratch.
    {!Bfs.eccentricity} is the single-source path. *)
val eccentricities : Graph.t -> int array

(** [diameter g] is the maximum eccentricity. *)
val diameter : Graph.t -> int

(** [radius g] is the minimum eccentricity. *)
val radius : Graph.t -> int

(** [average_degree g] is [2m / n] (0 for the empty graph). *)
val average_degree : Graph.t -> float

(** [degree_histogram g] maps degree -> node count, ascending by
    degree. *)
val degree_histogram : Graph.t -> (int * int) list
