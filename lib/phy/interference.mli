(** Pluggable interference models.

    Everything the scheduler core knows about the radio medium funnels
    through this interface: a pairwise conflict predicate, an
    incremental per-class blocked-set/feasibility builder, a channel
    count, and slot-replay reception. Three backends:

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
      wire-compatible; [Multichannel 1] reproduces UDG exactly.

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
    delta (valid until the next [start_class]; do not mutate). *)

type classifier

val classifier : instance -> classifier
val start_class : classifier -> uninformed:Bitset.t -> unit
val admits : classifier -> int -> bool
val accept : classifier -> int -> unit
val class_coverage : classifier -> Bitset.t

(** {1 Slot replay} *)

type outcome = Silent | Delivered of int | Collision of int list

type slot_ctx

(** [slot_ctx inst ~uninformed ~scheduled] prepares one slot's replay:
    [uninformed] is the claimed uninformed set entering the slot and
    [scheduled] every sender the schedule names (multi-channel
    receivers tune on the schedule, not on which transmissions
    survived faults). *)
val slot_ctx : instance -> uninformed:Bitset.t -> scheduled:int list -> slot_ctx

(** [slot_channels ctx] is how many channels the slot's first-fit
    grouping uses — the validator's overflow check against k. *)
val slot_channels : slot_ctx -> int

(** [reception ctx ~effective ~rx] is what [rx] hears given the
    transmissions that actually happened. *)
val reception : slot_ctx -> effective:int list -> rx:int -> outcome
