(** Localised topology churn for dynamic-network experiments.

    Sensor deployments drift locally — a cluster of nodes shifts (wind,
    water, vehicles) while the rest of the field stays put. [drift]
    models exactly that: it picks a random drift centre, displaces the
    [k] nodes nearest to it by a bounded jitter, rebuilds the unit-disk
    graph, and reports the change as the rewire delta
    {!Mlbs_graph.Graph.edit} and the reschedule engine consume. Node
    count and identities are preserved; only edges change. *)

(** A drift event: the moved deployment and its graph delta. *)
type delta = {
  network : Network.t;  (** the deployment after the drift *)
  moved : int list;  (** the nodes that were displaced, ascending *)
  rewired : (int * int list) list;
      (** full new adjacency for every node whose neighbour set
          changed — exactly the [rewire] argument of
          {!Mlbs_graph.Graph.edit}; empty when the drift did not cross
          any radius threshold *)
}

(** [drift rng net ~k ~jitter] displaces the [k] nodes nearest a random
    centre node by independent uniform offsets in
    [[-jitter, +jitter]²], resampling offsets until the drifted UDG is
    both collision-free and connected (a broadcast must still reach
    every node). Raises [Invalid_argument] when [k] is not in
    [1..n] or [jitter <= 0], and [Failure] after 100 failed
    resamples. *)
val drift : Mlbs_prng.Rng.t -> Network.t -> k:int -> jitter:float -> delta
