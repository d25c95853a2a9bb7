(** Blind flooding — the broadcast-storm reference point ([17] in the
    paper, Ni et al.).

    Every informed node relays without any conflict awareness. In dense
    networks simultaneous relays collide at their common neighbours and
    the storm can leave nodes permanently uninformed — precisely the
    failure mode conflict-aware scheduling exists to prevent. Two
    variants:

    - [Once]: the classic protocol — each node relays exactly once, at
      its first opportunity after receiving. May not cover the network.
    - [Persistent p]: each node with uninformed neighbours relays with
      probability [p] at every active slot (deterministically hashed,
      so runs are reproducible) until its neighbourhood is informed.
      Converges with probability 1 for [0 < p < 1]; the price is
      retransmissions.

    Used by the motivation example and the bench's protocol-comparison
    table. *)

type variant = Once | Persistent of float

type result = {
  schedule : Mlbs_core.Schedule.t;  (** every transmission attempted *)
  covered : bool;  (** did the message reach every node? *)
  informed : int;  (** nodes holding the message at the end *)
  latency : int;  (** slots until coverage (or until the run stopped) *)
  collisions : int;  (** receiver-slot outcomes the radio called a collision *)
  retransmissions : int;
}

(** [run ?max_slots ?faults model variant ~source ~start] simulates
    flooding. [Once] stops when no transmission is pending;
    [Persistent] stops at coverage or [max_slots] (default [64 * n * r]),
    whichever first — running out of slots reports [covered = false]
    rather than raising, since non-coverage is the phenomenon being
    measured. Raises [Invalid_argument] for [Persistent p] outside
    (0, 1].

    Receivers hear through the model's [Interference.reception]
    ({!Online.air}), so the schedule replays under [model].

    [faults] (default {!Mlbs_sim.Fault.none}, a strict no-op) excludes
    crashed nodes from sending and hearing and rolls each otherwise
    decodable reception for per-link loss on the data channel — a
    corrupted packet still interferes. Senders follow their own,
    possibly jittered, clock ({!Mlbs_sim.Fault.own_clock}), the one
    [Mlbs_sim.Validate.check_under_faults] replays them on. A
    permanently crashed pending relay under [Once] idles the run out
    to [max_slots]. *)
val run :
  ?max_slots:int ->
  ?faults:Mlbs_sim.Fault.t ->
  Mlbs_core.Model.t ->
  variant ->
  source:int ->
  start:int ->
  result
