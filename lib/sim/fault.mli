(** Seeded, deterministic fault plans for the radio and the protocols.

    The paper's model is ideal: a slot either collides or delivers, and
    every node survives the broadcast. This module describes what a real
    low-duty-cycle deployment does instead — per-link packet corruption,
    node crashes (with optional recovery), and wake-slot clock jitter —
    as a {e plan}: a pure function of [(seed, slot, link)] that any
    component can query without sharing state. Two consumers asking the
    same question always get the same answer, in any order, so the radio
    replay, the protocols and the independent validator all see one
    consistent fault trace, and an experiment is exactly reproducible
    from [--fault-seed].

    {b Loss is corruption, not silence.} A lost packet still arrives as
    energy at the receiver — its payload fails the checksum. So a lossy
    transmission still {e interferes} (two audible senders collide
    whether or not either payload would have survived), it just cannot
    deliver. This keeps the delivered set monotone non-increasing in the
    loss rate under a fixed seed: raising [--loss] can only erase
    receptions, never mint new ones (tested by qcheck).

    A plan with zero loss, no crashes and no jitter is recognised by
    {!is_noop}; every consumer treats it as a strict no-op, so fault-
    free runs stay byte-identical to the pre-fault code paths.

    The Gilbert–Elliott chain memoises per-link state internally; a
    plan is therefore cheap to query repeatedly but must not be shared
    across domains (create one per worker task). *)

(** Per-link packet-loss model. Probabilities are loss probabilities in
    [0, 1]. *)
type loss =
  | No_loss
  | Bernoulli of float  (** i.i.d. loss per (slot, link) *)
  | Gilbert_elliott of {
      p_gb : float;  (** per-slot transition good → bad *)
      p_bg : float;  (** per-slot transition bad → good *)
      loss_good : float;  (** loss probability in the good state *)
      loss_bad : float;  (** loss probability in the bad state (bursts) *)
    }

(** One crash event: [node] dies at slot [at] (inclusive) and, with
    [recover = Some r], comes back — without the message or any state it
    learned — at slot [r] (exclusive: dead during [at, r)). *)
type crash = { node : int; at : int; recover : int option }

type spec = {
  loss : loss;
  crashes : crash list;
  wake_jitter : int;
      (** max |offset| of per-node wake-slot translation (duty cycle
          only); 0 disables *)
  seed : int;  (** master seed of every roll the plan makes *)
}

type t

(** The strict no-op plan (no loss, no crashes, no jitter). *)
val none : t

(** [make spec] compiles a plan. Raises [Invalid_argument] on
    probabilities outside [0, 1], negative jitter, or a crash/recover
    pair with [recover <= at]. *)
val make : spec -> t

val spec : t -> spec

(** [is_noop t] is [true] iff the plan can never drop, kill or shift
    anything — [No_loss] (or [Bernoulli 0.]), no crashes, zero jitter.
    Consumers use this to keep the fault-free fast path byte-identical
    to the pre-fault code. *)
val is_noop : t -> bool

(** [delivers ?channel ~slot ~tx ~rx t] — does the packet sent by [tx]
    at [slot] survive the link to [rx]? Deterministic in
    [(seed, channel, slot, tx, rx)] and independent of query order.
    [channel] separates the data radio (0, default) from the beacon (1)
    and E-construction (2) control streams so their rolls do not
    correlate. Rolls are {e coupled across loss rates}: with the same
    seed, every delivery that survives [Bernoulli p] also survives
    [Bernoulli p'] for [p' <= p]. *)
val delivers : ?channel:int -> slot:int -> tx:int -> rx:int -> t -> bool

(** [alive t ~slot u] is [false] while [u] is inside one of its crash
    windows. Nodes not named in any crash are always alive. *)
val alive : t -> slot:int -> int -> bool

(** [jittered t sched] applies the plan's wake-slot jitter to a wake
    schedule: each node's sequence is translated by a seeded offset in
    [[-wake_jitter, wake_jitter]]. Identity when [wake_jitter = 0].
    Neighbour forecasts computed from the {e unshifted} schedule go
    stale — exactly the failure the retry machinery must absorb. *)
val jittered : t -> Mlbs_dutycycle.Wake_schedule.t -> Mlbs_dutycycle.Wake_schedule.t

(** [own_clock t model] is the wake system a node's own radio follows
    under the plan: the model's, with {!jittered} applied under
    [Async] (the identity at jitter 0). The radio replay drops a
    faulty-run sender that is asleep on this clock, so a runner that
    sends only when {!Mlbs_core.Model.awake_in} it keeps every send its replay counts.
    Forecasts of a neighbour's wakes stay on the published schedule —
    the gap between the two is the fault being injected. *)
val own_clock : t -> Mlbs_core.Model.t -> Mlbs_core.Model.system

(** [sample_crashes ~n_nodes ~fraction ~window ?avoid ~seed] draws a
    deterministic crash schedule: each node outside [avoid] crashes with
    probability [fraction], at a slot uniform in the inclusive
    [window], without recovery. Raises [Invalid_argument] for
    [fraction] outside [0, 1] or an empty window. *)
val sample_crashes :
  n_nodes:int ->
  fraction:float ->
  window:int * int ->
  ?avoid:int list ->
  seed:int ->
  unit ->
  crash list
