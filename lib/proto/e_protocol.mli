(** Distributed construction of the E-model 4-tuple — Algorithm 2 as an
    actual message-passing protocol.

    Each node starts from its local quadrant test ([E_i = 0] when its
    quadrant-i neighbourhood is empty, ∞ otherwise — the merged seeding
    of [Mlbs_core.Emodel]), and announces its tuple to its neighbours
    whenever a value improves; receiving an announcement makes a node
    re-relax [E_i(u) = w(u,v) + min E_i(v)] over the stored neighbour
    tuples. Values only decrease and each quadrant relation is a DAG, so
    the protocol terminates; the fixpoint equals the centralized
    [Emodel.compute ~seeding:Merged] (tested).

    Theorem 3 claims the construction costs O(1) updates per node —
    "the total cost of updates is less than 4 × N". [messages] counts
    every announcement so experiments can check that claim. *)

type result = {
  values : int array array;  (** node -> quadrant index -> E *)
  rounds : int;  (** synchronous exchange rounds until quiescence *)
  messages : int;  (** tuple announcements sent in total *)
  retransmissions : int;  (** announcements re-sent to recover lost copies *)
}

(** [construct ?faults model views] runs the protocol on the
    views produced by {!Hello.discover}. Under [Async] the edge weights
    are the same proactive CWT forecasts the centralized construction
    uses (computable by a node from its neighbour's seed, §III).

    [faults] injects per-link loss on the construction's control stream
    (channel 2 of the plan): an announcer keeps per-neighbour pending
    copies — the implicit ACK — and re-sends each round until every
    neighbour has the tuple or the retry budget is exhausted, after
    which a value that never settled degrades to a conservative 0
    instead of aborting. With a no-op plan the rounds and message
    counts are identical to the loss-free protocol. *)
val construct :
  ?faults:Mlbs_sim.Fault.t -> Mlbs_core.Model.t -> Hello.view array -> result
