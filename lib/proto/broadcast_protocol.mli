(** The conflict-aware broadcast as a fully distributed protocol: every
    decision is taken from state a node built out of received messages.

    This is the end of the road the paper points down in §VII ("a
    localized color scheme and its selection to provide a more reliable
    and scalable solution"): unlike {!Localized} — which scopes
    the *decision* to 2 hops but still reads the true informed set —
    nothing here touches global state except the radio itself.

    Per slot:

    + {b beacons} (the §III routine exchange, on the always-on receiving
      channel): each node broadcasts its status — whether it holds the
      message, how many of its neighbours still request it, its Eq.-10
      score — plus a digest of what it believes about its own
      neighbours, which is how information reaches 2 hops. Belief in
      "node x holds the message" is monotone (never revoked), so stale
      digests are harmless.
    + {b decisions}: every awake holder with requesting neighbours
      colors the candidates it can see (itself, and 1-/2-hop nodes it
      believes to be holders with requests), using only edges its
      {!Hello.view} can certify, and transmits iff it places itself in
      the class its (distributed) E values select.
    + {b radio}: the model's [Interference.reception] decides what
      each receiver hears ({!Online.air}: one audible sender under UDG,
      capture under SINR, channel rendezvous with overflow onto the
      last channel under multi-channel), so the schedule replays under
      the model it ran on. A sender cannot observe its receivers
      directly — it backs off after each attempt ({!Online.backoff})
      and learns the outcome from the next beacons; unresolved
      requests trigger a retransmission.

    Imperfect knowledge (one-slot lag, uncertifiable edges) causes real
    collisions; back-off resolves them. Convergence is checked against
    the ground truth only to stop the simulation. *)

type stats = {
  schedule : Mlbs_core.Schedule.t;  (** data transmissions actually made *)
  latency : int;
  collisions : int;
  retransmissions : int;
  beacon_messages : int;  (** control-channel broadcasts *)
  e_messages : int;  (** announcements spent building E (Theorem 3) *)
  delivered : int;
      (** nodes informed and alive in the plan's end state (once every
          crash window has been applied) *)
  gave_up : int;
      (** alive holders that exhausted their retry budget with
          requests still outstanding *)
  lost_packets : int;  (** collision-free data receptions erased by loss *)
}

(** [run ?max_slots ?faults ?max_attempts model ~source ~start]
    discovers neighbourhoods ({!Hello}), builds E distributedly
    ({!E_protocol}), then runs the broadcast. Raises [Failure] when the
    protocol has not covered the network within [max_slots] (default
    [64 * n * r]) — fault-free only; under an active fault plan running
    out of slots ends the run with partial delivery instead, since
    non-coverage is then the phenomenon being measured.

    [faults] (default {!Mlbs_sim.Fault.none}, a strict no-op) injects
    the plan into every layer: per-link loss on the data radio
    (channel 0), the beacons (channel 1) and the E construction
    (channel 2); crashes silence a node and a recovering node rejoins
    with amnesia — its neighbours' unresolved requests, surfaced by the
    beacons (the implicit ACK stream), pull relays back into the greedy
    re-coloring exactly like a lagged relay; wake jitter desynchronises
    a node's true radio clock ({!Mlbs_sim.Fault.own_clock}) from the
    published schedule its neighbours forecast with. The run ends when
    every alive node is informed, or when no alive holder with
    outstanding requests and remaining retries exists (give-up).

    [max_attempts] bounds data transmissions per node (default: 8 when
    the plan is active, unbounded otherwise). *)
val run :
  ?max_slots:int ->
  ?faults:Mlbs_sim.Fault.t ->
  ?max_attempts:int ->
  Mlbs_core.Model.t ->
  source:int ->
  start:int ->
  stats
