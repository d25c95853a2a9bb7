(** Slot-level radio replay — the custom simulator's ground truth.

    Schedulers claim which nodes each advance informs; this module does
    not trust them. It replays a schedule transmission by transmission
    under the model of §III: a transmission reaches every neighbour of
    the sender; an uninformed node that hears exactly one transmission
    in a slot receives the message; two or more overlapping
    transmissions collide at their common neighbour and deliver
    nothing. Senders must hold the message, be awake (duty cycle), and
    transmit at most once overall (each relay's neighbourhood empties
    after its cast, so a correct scheduler never re-sends).

    With a {!Fault} plan the same replay also models packet corruption
    (a lost packet still interferes but cannot deliver), node crashes
    (a dead node neither sends nor hears) and wake-slot jitter (a
    scheduled sender that drifted asleep stays silent). *)

module Bitset = Mlbs_util.Bitset

(** What happened at one slot of the replay. *)
type slot_event = {
  slot : int;
  senders : int list;
  received : int list;  (** newly informed, ascending *)
  collided : (int * int list) list;
      (** (node, the ≥2 senders it heard) — the node stays uninformed *)
}

type outcome = {
  events : slot_event list;  (** ascending by slot *)
  informed : Bitset.t;  (** final informed set *)
  violations : string list;  (** empty iff the schedule was well-formed *)
  dropped : (int * int) list;
      (** (slot, node): sends that never aired — crashed, message-less
          or jitter-asleep senders under injected failures *)
  lost : (int * int * int) list;
      (** (slot, tx, rx): airborne packets corrupted by the fault
          plan — the receiver heard only noise *)
}

(** [replay ?allow_resend ?faults model schedule] runs the radio
    simulation through [Interference.reception] on the model's instance
    — the call the on-line runners of [Mlbs_proto] hear through. Never
    raises on a malformed schedule — problems are reported in
    [violations] (and collisions in the per-slot events) so tests can
    assert on them.

    [allow_resend] (default false) suppresses the send-once and the
    channel-overflow violations: lossy protocols such as
    [Mlbs_proto.Localized] legitimately retransmit after collisions,
    and their senders may find no free channel under [Multichannel k]
    (they then collide on the last one). A schedule's slots must fit
    the k channels.

    [faults] (default {!Fault.none}) injects the full fault plan. When
    the plan {!Fault.is_noop}, the replay is byte-identical to the
    fault-free one. Otherwise senders lacking the message or asleep
    under jitter are dropped silently (the schedule was computed for a
    kinder world — diverging from it is the experiment), per-link loss
    rolls decide whether a collision-free reception actually delivers,
    and the per-slot claim check is skipped. A permanent crash is a
    plan crash that never recovers: the node's transmissions are
    dropped (reported in [dropped]) and it never receives. *)
val replay :
  ?allow_resend:bool ->
  ?faults:Fault.t ->
  Mlbs_core.Model.t ->
  Mlbs_core.Schedule.t ->
  outcome
