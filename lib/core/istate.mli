(** The frontier state every off-line planner walks.

    A reusable mutable view of one broadcast position: the informed set
    [W], its complement, an incrementally carried [Bitset.hash] of [W],
    and the hop-distance field from [W] kept as per-distance layer
    bitsets [L_1 .. L_dmax] (the admissible lower bounds hang on them).
    [apply] informs the senders' uninformed neighbours and moves the
    cone of nodes whose distance drops one layer down, a word loop per
    layer; [undo] moves the logged cone back. The frontier [W ∩ N(L_1)]
    is cached per position, and a receiver count is a popcount of
    [N(u) ∩ W̄]. The M-counter search, the improver, the E-model
    pipeline, the traces and the layered baselines all read the
    frontier, the advance and Algorithm 1's classes from here. Query
    results agree, state for state, with a from-scratch walk over [W]
    (the test oracle [Test_support.Model_walk], property-tested in
    [test/test_incremental.ml]).

    The search keeps one instance per domain (see [Mcounter]'s
    domain-local scratch), and [Mcounter.evaluate] resets it; a planner
    that calls the search owns a separate instance. Instances are never
    shared across domains. *)

module Bitset = Mlbs_util.Bitset

type t

(** [create n] allocates state for [n]-node models; no model is bound
    yet. *)
val create : int -> t

(** [capacity t] is the node count given at creation. *)
val capacity : t -> int

(** [reset t model ~w] binds [model] (whose node count must equal the
    capacity) and rebuilds every structure from scratch for the
    informed set [w] — one layered bit-parallel BFS. Clears the undo
    log. *)
val reset : t -> Model.t -> w:Bitset.t -> unit

(** [model t] is the model bound by the last [reset]. *)
val model : t -> Model.t

(** [apply t ~senders] advances: informs every uninformed neighbour of
    a sender and pushes one undo frame. Raises [Invalid_argument],
    before any change, when a sender is not informed. *)
val apply : t -> senders:int list -> unit

(** [undo t] pops the most recent [apply] frame, restoring the previous
    position exactly. *)
val undo : t -> unit

(** [depth t] is the number of un-undone [apply] frames. *)
val depth : t -> int

(** [rewind t ~depth] undoes frames until [depth t = depth] — the
    exception-unwind path of the search. *)
val rewind : t -> depth:int -> unit

(** [last_added t] is the nodes informed by the most recent frame,
    ascending — the frame's logged first cone layer. *)
val last_added : t -> int list

(** [w t] is the current informed set. The returned value is the live
    internal set: it mutates with [apply]/[undo], so callers must
    [Bitset.copy] it before retaining it. *)
val w : t -> Bitset.t

(** [ubar t] is the live complement of [w t] (same sharing caveat). *)
val ubar : t -> Bitset.t

(** [whash t] is [Bitset.hash (w t)], maintained incrementally. *)
val whash : t -> int

(** [n_informed t] is [Bitset.cardinal (w t)], maintained
    incrementally. *)
val n_informed : t -> int

(** [complete t] is [W = N]. *)
val complete : t -> bool

(** [uncov t u] is [|N(u) ∩ W̄|] — [Model.n_receivers] as a popcount
    over [u]'s neighbour row and the live [W̄], for any node, informed
    or not. *)
val uncov : t -> int -> int

(** [lb t] is the hop lower bound: the largest distance from [W] to an
    uninformed node, [max_int] when one is unreachable, [0] when
    complete — equal to [Mcounter.hop_lower_bound]. *)
val lb : t -> int

(** [layer t ~d] is [L_d], the set of (uninformed) nodes at BFS
    distance [d] from [W], for [1 ≤ d ≤ dmax] where [dmax] is the
    largest finite distance ([lb t] when nothing is unreachable) — the
    per-distance layers the lower bounds in {!Bounds} hang on. The
    returned set is the maintained one: it mutates with
    [apply]/[undo]/[reset], so callers must [Bitset.copy] it before
    retaining it. Raises [Invalid_argument] when [d] is out of range. *)
val layer : t -> d:int -> Bitset.t

(** [probe_child t ~senders] is [(lb', k)] where [k] is the number of
    nodes [apply t ~senders] would inform and [lb'] the value [lb]
    would take in the resulting position — computed by [apply]'s cone
    walk over the layers, without mutating [t] (no undo frame is
    pushed). Raises
    [Invalid_argument] when a sender is not informed. *)
val probe_child : t -> senders:int list -> int * int

(** [probe_seeded t ~seeds] is [probe_child] with the coverage set
    already known: [seeds] must equal [N(senders) ∩ W̄] (as produced by
    [coverage] or [greedy_classes_cov]), skipping the per-sender
    neighbourhood scan. *)
val probe_seeded : t -> seeds:Bitset.t -> int * int

(** [coverage t ~senders] is a fresh set holding [N(senders) ∩ W̄] —
    exactly the nodes [apply t ~senders] would inform. Raises
    [Invalid_argument] when a sender is not informed. *)
val coverage : t -> senders:int list -> Bitset.t

(** [candidates t ~slot] is every informed node with an uninformed
    neighbour (Eq. 1 constraints 1–2) that is awake at [slot] (Eq. 3),
    ascending. *)
val candidates : t -> slot:int -> int list

(** [greedy_classes t ~slot] is Algorithm 1 at the current position:
    colour classes [C_1 .. C_λ] of the candidates, visited in
    {!Mlbs_phy.Interference.visit_order} (descending receiver count,
    ties by ascending id). Under [Multichannel k] runs of [k] classes
    merge into one (slot, channel) super-class in concatenated order;
    under [Sinr] admission is the additive-feasibility zone. *)
val greedy_classes : t -> slot:int -> int list list

(** [greedy_classes_cov t ~slot] is [greedy_classes] paired with each
    class's coverage set [N(class) ∩ W̄] — a byproduct of the colouring
    that the search reuses as probe seeds and child memo keys. It runs
    the class builder over the cached frontier's counts and the live
    [ubar], with one classifier cached per [reset]; the returned sets
    are fresh copies. Each call counts one [search/color_selections]. *)
val greedy_classes_cov : t -> slot:int -> (int list * Bitset.t) list

(** [next_active_slot t ~after] is, under [Async], the earliest slot
    [> after] at which some frontier node is awake; under [Sync] it is
    [after + 1]. [None] when the frontier is empty. *)
val next_active_slot : t -> after:int -> int option
