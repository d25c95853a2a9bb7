(** Pluggable interference models.

    Everything the scheduler core knows about the radio medium funnels
    through this interface: a pairwise conflict predicate, Algorithm 1's
    class builder (an incremental per-class blocked-set/feasibility
    test, the greedy passes over it and the k-class channel merge), a
    channel count, and slot-replay reception. Three backends:

    - {!Udg} — the paper's protocol model (N(u) ∩ N(v) ∩ W̄ ≠ ∅),
      extracted in {!module:Udg} and byte-identical to the historical
      inline code;
    - {!Sinr} — the physical model of arXiv:1207.1836: path-loss
      exponent α, noise floor, decode threshold β ≥ 1, uniform tx
      power (see {!module:Sinr} for the normalisation). Search-side
      classes are built additively feasible, so the scheduled-slot
      validator accepts them by construction, while the pairwise
      {!conflicts} is the conservative prefilter for the G-OPT choice
      enumeration;
    - {!Multichannel} — colours decode to (slot, channel) with
      conflicts only intra-channel (arXiv:2009.09190). Channels are
      derived from the schedule bytes by first-fit grouping
      ({!module:Multichannel}), never stored, so schedules stay
      wire-compatible. A sender that finds none of the k channels free
      transmits on the last one and may collide there, so
      [Multichannel 1] is UDG for schedulers and on-line runners alike;
      the strict validator still refuses a slot that overflows k.

    The spec {!t} is pure data (wire-codable, part of the service's
    cache key via {!to_string}); {!bind} attaches it to a deployment's
    geometry to obtain the operational {!instance}. *)

module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph

type sinr_params = Sinr.params = {
  alpha : float;  (** path-loss exponent, > 0 *)
  beta : float;  (** decode threshold, ≥ 1 (capture effect) *)
  noise : float;  (** ambient noise floor, ≥ 0 *)
  power : float;  (** uniform tx power, ≥ β·noise *)
}

type t = Udg | Sinr of sinr_params | Multichannel of int

val default_sinr : sinr_params
val equal : t -> t -> bool

(** [channels t] is the number of parallel channels a slot carries
    (1 except under [Multichannel k]). *)
val channels : t -> int

(** [geometry_dependent t]: do conflicts (and hence search memo values)
    depend on node positions rather than the graph alone? True only for
    {!Sinr}. Graph-keyed warm starts — [Reschedule]'s snapshot
    seeding — must be skipped when this holds, or a memo computed on
    one deployment's geometry would steer the search on another's. *)
val geometry_dependent : t -> bool

(** [validate t] checks the spec's parameter constraints (the same ones
    {!bind} enforces: every SINR parameter finite, then the bounds on
    {!sinr_params}), for wire decoding and CLI parsing. *)
val validate : t -> (unit, string) result

(** [to_string t] is the stable model id ([udg], [sinr:A,B,N,P],
    [mc:K]) — it round-trips through {!parse} and keys the service
    cache. *)
val to_string : t -> string

val parse : string -> (t, string) result

(** {1 Bound instances} *)

type instance =
  | I_udg of Graph.t
  | I_sinr of Sinr.t
  | I_mc of { graph : Graph.t; k : int }

(** [bind t net] attaches the spec to a deployment. Raises
    [Invalid_argument] when the spec fails {!validate}. *)
val bind : t -> Mlbs_wsn.Network.t -> instance

val spec : instance -> t

(** [conflicts inst ~uninformed u v]: may [u] and [v] not share a slot
    (under multi-channel: a channel)? Symmetric; false for [u = v]. *)
val conflicts : instance -> uninformed:Bitset.t -> int -> int -> bool

(** {1 Greedy class building}

    [classifier] is reusable scratch sized to the instance's network;
    [start_class] opens a class against a slot's uninformed set,
    [admits]/[accept] grow it, [class_coverage] is the informed-set
    delta (valid until the next [start_class]; do not mutate). Under
    SINR a class opened by [start_class] tracks interference sums on
    all of the uninformed set, since any node may be accepted. *)

type classifier

val classifier : instance -> classifier

(** [row_classifier rows] is the UDG class builder over symmetric
    neighbour rows [rows.(i) = N(i)], read and never mutated; every
    [uninformed] set has their capacity. [classifier] of a UDG or mc
    instance is this over the graph's rows; the distributed protocol
    builds one over each node's 2-hop view. *)
val row_classifier : Bitset.t array -> classifier
val start_class : classifier -> uninformed:Bitset.t -> unit
val admits : classifier -> int -> bool
val accept : classifier -> int -> unit
val class_coverage : classifier -> Bitset.t

(** {1 Algorithm 1}

    The paper's extended greedy colour scheme, the one class builder
    every scheduler, the search and the choice enumeration call. Items
    arrive already in visiting order; the schedulers' order is
    {!visit_order}. *)

(** [visit_order counts] is Eq. (2)'s visiting order of the candidates
    [(u, receiver count)]: receiver count descending, then id
    ascending. *)
val visit_order : (int * int) list -> int list

(** [pass c ~uninformed items] opens one class against [uninformed]
    and admits each item in order while the class stays feasible.
    Returns the class and the rejects, both in visiting order; the
    class's coverage is then [class_coverage c]. Under SINR the class
    tracks sums only on [reach = uninformed ∩ ⋃ N(items)], the
    receivers an item can affect; the classes are those of
    [start_class] and the same [admits]/[accept] sequence. *)
val pass : classifier -> uninformed:Bitset.t -> int list -> int list * int list

(** [classes c ~uninformed items] repeats {!pass} over the rejects
    until every item has a class. [reach] is computed once, from
    [items], for every pass. *)
val classes : classifier -> uninformed:Bitset.t -> int list -> int list list

(** [classes_cov c ~uninformed items] is [classes], each class paired
    with a fresh copy of its coverage [N(class) ∩ uninformed] — the
    probe seeds and child memo keys of the search. *)
val classes_cov : classifier -> uninformed:Bitset.t -> int list -> (int list * Bitset.t) list

(** [merge_channels k rows] merges runs of [k] consecutive classes into
    one (slot, channel) super-class: senders concatenated in class
    order, coverage unioned into the run's first set (which is
    mutated). The identity when [k <= 1]. *)
val merge_channels : int -> (int list * Bitset.t) list -> (int list * Bitset.t) list

(** {1 Slot replay} *)

type outcome = Silent | Delivered of int | Collision of int list

type slot_ctx

(** [slot_ctx inst ~uninformed ~scheduled] prepares one slot's replay:
    [uninformed] is the claimed uninformed set entering the slot and
    [scheduled] every sender the schedule names (multi-channel
    receivers tune on the schedule, not on which transmissions
    survived faults). *)
val slot_ctx : instance -> uninformed:Bitset.t -> scheduled:int list -> slot_ctx

(** [overflow ctx]: did some scheduled sender find none of the k
    channels free and join the last one (the overflow rule)? Always
    [false] on single-channel backends. *)
val overflow : slot_ctx -> bool

(** [reception ctx ~effective ~rx] is what [rx] hears given the
    transmissions that actually happened. *)
val reception : slot_ctx -> effective:int list -> rx:int -> outcome
