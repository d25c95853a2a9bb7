(** Incremental evaluation state for the M-counter search.

    A reusable mutable view of one search position: the informed set
    [W], its complement, an incrementally maintained [Bitset.hash] of
    [W], per-node uninformed-neighbour counts (frontier + greedy
    receiver counts), and the hop-distance structure backing the
    admissible lower bound. [apply] advances by one sender set in
    O(affected nodes); [undo] restores the previous position exactly
    from a watermarked log. Query results agree, state for state, with
    the from-scratch recomputations in {!Model} and {!Mcounter}
    (property-tested in [test/test_incremental.ml]).

    One instance is intended per domain (see [Mcounter]'s domain-local
    scratch); instances are never shared across domains. *)

module Bitset = Mlbs_util.Bitset

type t

(** [create n] allocates state for [n]-node models; no model is bound
    yet. *)
val create : int -> t

(** [capacity t] is the node count given at creation. *)
val capacity : t -> int

(** [reset t model ~w] binds [model] (whose node count must equal the
    capacity) and rebuilds every structure from scratch for the
    informed set [w] — one multi-source BFS plus one adjacency sweep.
    Clears the undo log. *)
val reset : t -> Model.t -> w:Bitset.t -> unit

(** [model t] is the model bound by the last [reset]. *)
val model : t -> Model.t

(** [apply t ~senders] advances: informs every uninformed neighbour of
    a sender and pushes one undo frame. Raises [Invalid_argument] when
    a sender is not informed. *)
val apply : t -> senders:int list -> unit

(** [undo t] pops the most recent [apply] frame, restoring the previous
    position exactly. *)
val undo : t -> unit

(** [depth t] is the number of un-undone [apply] frames. *)
val depth : t -> int

(** [rewind t ~depth] undoes frames until [depth t = depth] — the
    exception-unwind path of the search. *)
val rewind : t -> depth:int -> unit

(** [last_added t] is the nodes informed by the most recent frame, in
    application order (not sorted). *)
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

(** [uncov t u] is [|N(u) ∩ W̄|] — [Model.n_receivers] without the
    scan. *)
val uncov : t -> int -> int

(** [lb t] is the hop lower bound: the largest distance from [W] to an
    uninformed node, [max_int] when one is unreachable, [0] when
    complete — equal to [Mcounter.hop_lower_bound]. *)
val lb : t -> int

(** [layer t ~d] is the set of (uninformed) nodes at BFS distance [d]
    from [W], for [1 ≤ d ≤ lb t] — the per-distance layers the lower
    bounds in {!Bounds} hang on. Built lazily from the maintained
    distance array; the returned set is live scratch, invalidated by
    the next [apply]/[undo]/[reset]. Raises [Invalid_argument] when [d]
    is out of range. *)
val layer : t -> d:int -> Bitset.t

(** [probe_child t ~senders] is [(lb', k)] where [k] is the number of
    nodes [apply t ~senders] would inform and [lb'] the value [lb]
    would take in the resulting position — computed by a bit-parallel
    cone walk over per-distance layer bitsets without mutating [t] (no
    undo frame is pushed). Raises
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

(** [candidates t ~slot] equals [Model.candidates] at the current
    position. *)
val candidates : t -> slot:int -> int list

(** [greedy_classes t ~slot] equals [Model.greedy_classes] at the
    current position. *)
val greedy_classes : t -> slot:int -> int list list

(** [greedy_classes_cov t ~slot] is [greedy_classes] paired with each
    class's coverage set [N(class) ∩ W̄] — a byproduct of the colouring
    that the search reuses as probe seeds and child memo keys. It runs
    [Model.classes_of_counts] over the maintained counts and the live
    [ubar], with one classifier cached per [reset]. The returned sets
    are fresh copies. *)
val greedy_classes_cov : t -> slot:int -> (int list * Bitset.t) list

(** [next_active_slot t ~after] equals [Model.next_active_slot] at the
    current position. *)
val next_active_slot : t -> after:int -> int option
