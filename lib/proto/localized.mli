(** A localized color scheme — the paper's future work ("we will focus
    on a localized color scheme and its selection to provide a more
    reliable and scalable solution", §VII).

    The global schedulers assume an off-line view of the whole frontier.
    Here every candidate decides alone from information a real node
    has:

    - its 2-hop neighbourhood (from the beaconing of §III),
    - which of those nodes hold the message (receiving channels are
      always on, so transmissions are overheard),
    - the proactive E-tuples.

    Each active slot, every candidate colours the candidates it can see
    (Algorithm 1 restricted to its 2-hop view), applies Eq. (10)
    locally, and transmits iff it places itself in the selected class.
    Inconsistent views can make two conflicting relays fire together —
    a real collision: the common receivers stay uninformed, and the
    senders retry after a deterministic exponential back-off. The
    resulting schedule is therefore {e lossy} (collisions and
    retransmissions happen), which is exactly the reliability cost the
    future-work remark anticipates; [Mlbs_sim.Validate.check_lossy]
    checks such runs.

    Receivers hear through the model's [Interference.reception]
    ({!Online.air}), so the schedule replays under the model it ran on.
    Back-off and the stall escalation that breaks deadlocked divergent
    selections are {!Online}'s, shared with {!Broadcast_protocol}. *)

type result = {
  schedule : Mlbs_core.Schedule.t;  (** every transmission actually made *)
  latency : int;  (** elapsed slots until full coverage *)
  collisions : int;  (** receiver-slot collision events *)
  retransmissions : int;  (** sends beyond each node's first *)
}

(** [run ?max_slots model ~source ~start] simulates the
    protocol until every node is informed. [max_slots] (default
    [64 * n * r]) bounds the simulation; exceeding it raises [Failure]
    (a livelock would be a protocol bug — tests rely on this). *)
val run :
  ?max_slots:int ->
  Mlbs_core.Model.t ->
  source:int ->
  start:int ->
  result
