(** The broadcast model shared by every scheduler (paper §III–IV): the
    network, the system model (synchronous rounds or a duty cycle) and
    the interference backend, plus the informed-set primitives the
    on-line runners read directly.

    A broadcast is a sequence of *advances*: at round/slot [t], a set of
    informed senders transmits simultaneously, and every uninformed
    neighbour of a sender that decodes a transmission becomes informed.
    The off-line planners walk the informed set [W] with {!Istate},
    which holds the frontier (Eq. 1 constraints 1–2; Eq. 3 adds
    wake-up), the advance and Algorithm 1's classes at the current
    position. Here remain the wake-up tests, the receiver count and
    {!color_classes}, Algorithm 1 over a caller's own candidates. *)

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

(** [n_receivers t ~w u] is [|N(u) ∩ W̄|], the number of nodes [u]'s
    relay would inform. *)
val n_receivers : t -> w:Bitset.t -> int -> int

(** [awake_in system u ~slot] is [true] under [Sync]; under [Async] it
    is the wake schedule's verdict for [u] at [slot]. The one awake
    test: schedulers, runners and the radio replay all read it. *)
val awake_in : system -> int -> slot:int -> bool

(** [next_wake system u ~after] is [u]'s first active slot [> after]:
    [after + 1] under [Sync]. *)
val next_wake : system -> int -> after:int -> int

(** [awake t u ~slot] is [awake_in (system t) u ~slot]. *)
val awake : t -> int -> slot:int -> bool

(** [color_classes t ~uninformed counts] is Algorithm 1 over a
    caller-supplied candidate list [(u, receiver count)] under the
    model's interference backend, in {!Mlbs_phy.Interference.visit_order}
    — the colouring of the layer-structured baselines and the localized
    runner. It never merges channels. *)
val color_classes : t -> uninformed:Bitset.t -> (int * int) list -> int list list

(** [complete t ~w] is [W = N]. *)
val complete : t -> w:Bitset.t -> bool
