(** Random deployments matching the paper's simulation setting (§V.A):
    "50∼300 nodes, with a communication radius of 10 feet, are deployed
    uniformly to cover an interest area of 50 × 50 Sq. Ft. [...] The
    source is randomly selected with a distance of 5∼8 hops to the
    farthest node." *)

(** Spatial distribution of the nodes. The paper evaluates uniform
    deployments only; the other shapes ship with the library for
    robustness studies (see the bench's "deployment shapes" table). *)
type shape =
  | Uniform  (** i.i.d. uniform over the area — the paper's setting *)
  | Clustered of { clusters : int; spread : float }
      (** hotspots: cluster centres uniform, members Gaussian around
          them with the given standard deviation (ft) *)
  | Corridor of { breadth : float }
      (** a long thin strip of the given breadth along the area's
          diagonal — stresses large hop counts *)
  | Grid_jitter of { jitter : float }
      (** a regular √n×√n grid, each node displaced uniformly by at most
          [jitter] in each coordinate — near-planned deployments *)

type spec = {
  n_nodes : int;  (** number of nodes to place *)
  width : float;  (** area width (ft) *)
  height : float;  (** area height (ft) *)
  radius : float;  (** communication radius (ft) *)
  shape : shape;
}

(** The paper's setting with a given node count (uniform shape). *)
val paper_spec : n_nodes:int -> spec

(** [generate rng spec] samples node positions uniformly in the area and
    resamples whole deployments until the UDG is connected (a broadcast
    must be able to reach every node). Raises [Failure] after 200
    failed attempts — a sign the requested density cannot connect. *)
val generate : Mlbs_prng.Rng.t -> spec -> Network.t

(** [select_source rng net ~min_ecc ~max_ecc] picks a node uniformly
    among those whose eccentricity lies in [min_ecc, max_ecc]; when no
    node qualifies, it falls back to a node of eccentricity closest to
    the interval (paper: sources 5–8 hops from the farthest node, which
    low-density deployments cannot always provide). All eccentricities
    come from one {!Mlbs_graph.Metrics.eccentricities} pass over the
    graph. *)
val select_source : Mlbs_prng.Rng.t -> Network.t -> min_ecc:int -> max_ecc:int -> int

(** [density spec] is nodes per square foot — the x-axis of the paper's
    figures. *)
val density : spec -> float
