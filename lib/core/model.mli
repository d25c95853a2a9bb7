(** The broadcast-state model shared by every scheduler (paper §III–IV).

    A broadcast is a sequence of *advances*: at round/slot [t], a set of
    informed senders neighbor-casts simultaneously, and every uninformed
    neighbour of a sender that hears exactly one transmission becomes
    informed. All scheduling policies manipulate the same three
    primitives defined here:

    - the candidate set (Eq. 1 constraints 1–2; Eq. 3 adds wake-up),
    - the conflict predicate [N(u) ∩ N(v) ∩ W̄ ≠ ∅] (constraint 3),
    - the extended greedy colouring of candidates (Algorithm 1): this
      module fixes its visiting order and hands the ordered candidates
      to the one class builder, [Mlbs_phy.Interference.classes]. *)

module Bitset = Mlbs_util.Bitset

(** Which system model the broadcast runs under. *)
type system =
  | Sync  (** round-based synchronous: any informed node may send *)
  | Async of Mlbs_dutycycle.Wake_schedule.t
      (** asynchronous duty cycle: a node sends only at its wake slots *)

type t

(** [create net system] fixes network, system model and interference
    backend ([?phy], default the paper's UDG protocol model). For
    [Async], the schedule must cover at least [Network.n_nodes net]
    nodes. Raises [Invalid_argument] when [phy] fails
    [Interference.validate]. *)
val create : ?phy:Mlbs_phy.Interference.t -> Mlbs_wsn.Network.t -> system -> t

val network : t -> Mlbs_wsn.Network.t
val graph : t -> Mlbs_graph.Graph.t
val system : t -> system

(** [phy t] is the interference spec the model was created under;
    [phy_instance t] its network-bound form (conflict predicate, class
    builder, slot replay). *)
val phy : t -> Mlbs_phy.Interference.t

val phy_instance : t -> Mlbs_phy.Interference.instance
val n_nodes : t -> int

(** [initial_w t ~source] is [W(t_s) = {s}]. *)
val initial_w : t -> source:int -> Bitset.t

(** [receivers t ~w u] is [N(u) ∩ W̄] — the nodes that would gain the
    message from [u]'s relay — sorted ascending. *)
val receivers : t -> w:Bitset.t -> int -> int list

(** [n_receivers t ~w u] is [|N(u) ∩ W̄|] without building the list. *)
val n_receivers : t -> w:Bitset.t -> int -> int

(** [awake t u ~slot] is [true] under [Sync]; under [Async] it is the
    wake schedule's verdict for [u] at [slot]. *)
val awake : t -> int -> slot:int -> bool

(** [candidates t ~w ~slot] is every node satisfying Eq. (1) constraints
    1–2 (informed, with an uninformed neighbour) — and, under [Async],
    awake at [slot] (Eq. 3). Sorted ascending. *)
val candidates : t -> w:Bitset.t -> slot:int -> int list

(** [frontier t ~w] is the candidate set ignoring wake-ups — the nodes
    that could ever still relay from [w]. *)
val frontier : t -> w:Bitset.t -> int list

(** [conflicts t ~w u v] is the signal-conflict predicate: [u] and [v]
    share an uninformed common neighbour, which would observe a
    collision if both sent simultaneously. Symmetric, irreflexive. *)
val conflicts : t -> w:Bitset.t -> int -> int -> bool

(** [greedy_classes t ~w ~slot] is Algorithm 1: colour classes
    [C_1 .. C_λ] of the candidates, visiting candidates in descending
    receiver count (ties: ascending node id, making runs
    deterministic). Under [Multichannel k] runs of [k] classes merge
    into one (slot, channel) super-class in concatenated order; under
    [Sinr] admission is the additive-feasibility zone. *)
val greedy_classes : t -> w:Bitset.t -> slot:int -> int list list

(** [classes_of_counts t cls ~uninformed counts] is the Algorithm 1 run
    behind [greedy_classes], over caller-counted candidates
    [(u, receiver count)] with a caller-held classifier for [t]'s
    instance: [Interference.classes] in [greedy_classes]' order, then
    [Interference.merge_channels] by [t]'s channel count. Each class
    comes with a fresh copy of its coverage. *)
val classes_of_counts :
  t ->
  Mlbs_phy.Interference.classifier ->
  uninformed:Bitset.t ->
  (int * int) list ->
  (int list * Bitset.t) list

(** [color_classes t ~uninformed counts] colours a caller-supplied
    candidate list [(u, receiver count)] under the model's interference
    backend — the same class builder the layer-structured baselines
    use. Same order as [greedy_classes]; never merges channels. *)
val color_classes : t -> uninformed:Bitset.t -> (int * int) list -> int list list

(** [apply t ~w ~senders] is the new informed set
    [W + A] = [w ∪ (∪_{u ∈ senders} N(u) ∩ W̄)]. Fresh set; [w] is not
    mutated. Raises [Invalid_argument] if some sender is not informed
    in [w]. *)
val apply : t -> w:Bitset.t -> senders:int list -> Bitset.t

(** [newly_informed t ~w ~senders] is the sorted list of nodes gaining
    the message — [apply] minus [w]. *)
val newly_informed : t -> w:Bitset.t -> senders:int list -> int list

(** [next_active_slot t ~w ~after] is, under [Async], the earliest slot
    > [after] at which some frontier node is awake ([None] when the
    frontier is empty); under [Sync] it is [after + 1] (every round is
    active) unless the frontier is empty. *)
val next_active_slot : t -> w:Bitset.t -> after:int -> int option

(** [complete t ~w] is [W = N]. *)
val complete : t -> w:Bitset.t -> bool
