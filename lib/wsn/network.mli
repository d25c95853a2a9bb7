(** A deployed WSN: node positions plus the induced unit-disk graph.

    This is the paper's network model (§III): [N(u)] is every node
    within the communication radius of [u]. The graph is built with
    the network, in O(n + m) past the distance checks ({!Grid}): every
    scheduler reads it. The per-quadrant neighbour partition is built
    on the first {!neighbors_in_quadrant} call, because only the
    E-model scheduler and boundary construction read it; a network is
    safe to share between domains and threads before and after that
    call. *)

type t

(** [create ~radius points] builds the UDG over [points]. Raises
    [Invalid_argument] when [radius <= 0], a coordinate is not finite
    or two nodes coincide (the UDG and quadrant models assume distinct
    positions). *)
val create : radius:float -> Mlbs_geom.Point.t array -> t

(** [of_graph ~radius ~points g] wraps a pre-built graph (used by
    fixtures whose adjacency is specified explicitly rather than
    geometrically). [points] still drive the quadrants. Raises
    [Invalid_argument] when [radius <= 0], sizes disagree or two nodes
    coincide. *)
val of_graph : radius:float -> points:Mlbs_geom.Point.t array -> Mlbs_graph.Graph.t -> t

(** [synthetic g] wraps a bare connectivity graph in a deterministic
    unit-grid geometry (node [i] at [(i mod cols, i / cols)],
    [cols = ceil (sqrt n)], radius 1.0) — for adjacencies that carry no
    positions. Quadrants derive from the fake geometry, so two
    calls on equal graphs yield networks the schedulers treat
    identically; the scheduling service and the reschedule engine both
    rely on this to keep derived schedules byte-reproducible. *)
val synthetic : Mlbs_graph.Graph.t -> t

(** [graph t] is the connectivity graph. *)
val graph : t -> Mlbs_graph.Graph.t

(** [n_nodes t] is the node count. *)
val n_nodes : t -> int

(** [radius t] is the communication radius. *)
val radius : t -> float

(** [position t u] is node [u]'s coordinates. *)
val position : t -> int -> Mlbs_geom.Point.t

(** [positions t] is the full coordinate array (internal; do not
    mutate). *)
val positions : t -> Mlbs_geom.Point.t array

(** [neighbors t u] is [N(u)], sorted. *)
val neighbors : t -> int -> int array

(** [neighbors_in_quadrant t u q] is [N(u) ∩ Q_q(u)], sorted — the set
    Algorithm 2 relaxes over. *)
val neighbors_in_quadrant : t -> int -> Mlbs_geom.Quadrant.t -> int array

(** [is_connected t] is connectivity of the UDG. *)
val is_connected : t -> bool

(** [density t ~area] is nodes per unit area. *)
val density : t -> area:float -> float

(** [pp] prints a short summary. *)
val pp : Format.formatter -> t -> unit
