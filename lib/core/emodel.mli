(** The E-model (paper §IV-E, Algorithm 2, Eq. 9–11): the practical,
    non-heuristic scheduler.

    Each node proactively carries a 4-tuple [E_1..E_4(u)] estimating the
    cost of the *unfinished* work from [u] to the edge of the network in
    each quadrant — hop counts in the synchronous system (Eq. 9), CWT-
    weighted delays in the duty-cycle system (Eq. 11). Construction
    (Algorithm 2):

    + seed 0 at boundary ("edge") nodes whose quadrant-i neighbourhood
      is empty, ∞ elsewhere;
    + relax [E_i(u) = w(u,v) + min E_i(v)] over [v ∈ N(u) ∩ Q_i(u)]
      until stable;
    + re-seed 0 at any node still at ∞ whose quadrant-i neighbourhood is
      empty (interior local minima around coverage holes), and relax the
      remaining ∞ values — and only those — again.

    Scheduling (Eq. 10) then picks, among the greedy color classes, the
    one holding the node with the largest applicable [E] value: the
    longer the remaining path behind a relay, the earlier it must enter
    the pipeline. Construction cost is O(1) messages per node per
    quadrant (Theorem 3). *)

module Quadrant = Mlbs_geom.Quadrant

type t

(** How the zero seeds of Algorithm 2 are chosen.

    - [Two_phase] (default, the paper's steps 2 and 5): first only
      {e boundary} nodes with an empty quadrant seed 0; interior
      empty-quadrant nodes (local minima around holes) are re-seeded in
      a second pass that fills the remaining ∞ values only.
    - [Merged]: every empty-quadrant node seeds 0 from the start — the
      fixpoint a fully asynchronous distributed construction converges
      to (see [Mlbs_proto.E_protocol]); values are pointwise ≤ the
      two-phase ones. *)
type seeding = Two_phase | Merged

(** [compute ?seeding model] builds the tuples. Under [Async], the
    per-edge weight [t(u,v)] is estimated proactively as the mean CWT
    from [u]'s wake-ups to [v]'s next wake-up over the first 4 frames —
    the forecast any node can make from its neighbour's seed and last
    active slot. *)
val compute : ?seeding:seeding -> Model.t -> t

(** [edge_weights model] is the per-hop weight of Eq. (9)/(11), as a
    function of [(u, v)]: [1] under [Sync]; under [Async], the
    proactive estimate of [t(u,v)] — how long [u] waits for [v]'s next
    wake-up. Applying [edge_weights model] builds every node's wake
    list once; {!compute} prices through it, and so does the
    distributed construction ([Mlbs_proto.E_protocol]), which must
    price edges the same way. *)
val edge_weights : Model.t -> int -> int -> int

(** [value t ~node q] is [E_q(node)]. After construction no value is ∞
    (every node reaches an empty-quadrant node inside its own quadrant
    DAG); this is asserted during [compute]. *)
val value : t -> node:int -> Quadrant.t -> int

(** [max_applicable t model ~w ~node] is the largest [E_k(node)] over
    quadrants [k] that still contain uninformed neighbours of [node] —
    the score Eq. (10) compares; [None] when no quadrant applies. *)
val max_applicable : t -> Model.t -> w:Model.Bitset.t -> node:int -> int option

(** [select t model ~w ~classes] is the index (into [classes]) that
    Eq. (10) picks: the class containing the node with the largest
    applicable E value; ties prefer the earlier (greedier) class.
    Raises [Invalid_argument] on an empty class list. *)
val select : t -> Model.t -> w:Model.Bitset.t -> classes:int list list -> int

(** [argmax_class node_score classes] is the index of the class
    holding the node with the largest [node_score] (a class scores [-1]
    when every node does); ties prefer the earlier (greedier) class.
    {!select} is [argmax_class] over the applicable E values. Raises
    [Invalid_argument] on an empty class list. *)
val argmax_class : (int -> int) -> int list list -> int

(** [pipeline ~classes_of ~select model ~source ~start] is the greedy
    pipelined broadcast: it walks an {!Istate} of its own from
    [{source}], and at each active slot from [start] on launches class
    [select ~w ~classes] of [classes_of ist ~slot] ([w] is the live
    informed set) until every node is informed. {!plan} is [pipeline]
    over Algorithm 1's classes ({!Istate.greedy_classes}) with the
    Eq. (10) choice; the ablations swap either argument. *)
val pipeline :
  classes_of:(Istate.t -> slot:int -> int list list) ->
  select:(w:Model.Bitset.t -> classes:int list list -> int) ->
  Model.t ->
  source:int ->
  start:int ->
  Schedule.t

(** [plan model ~source ~start] runs the E-model broadcast over
    [compute model]: at each active slot, color the candidates with
    Algorithm 1 and launch the Eq. (10) class. *)
val plan : Model.t -> source:int -> start:int -> Schedule.t
