(** Energy accounting for a broadcast schedule — the paper's future-work
    direction ("the further optimization can be conducted with other
    constraints, such as energy saving").

    The duty-cycle system exists to save energy: sending dominates
    consumption, receiving is cheap, idle listening cheaper still
    (§III). This module charges a schedule under a simple parametric
    model so policies can be compared on energy as well as latency. *)

(** Energy prices in arbitrary units. Defaults follow the usual WSN
    radio ratios (send ≫ receive > idle-listen per slot). *)
type prices = {
  tx : float;  (** one neighbor-cast *)
  rx : float;  (** one successful reception *)
  idle_per_slot : float;  (** listening, per node per slot of the broadcast *)
}

type report = {
  total : float;
  tx_energy : float;
  rx_energy : float;
  idle_energy : float;
  per_node : float array;  (** indexed by node id *)
}

(** [charge ?prices ?allow_resend ?faults model schedule] replays the
    schedule on the radio simulator and prices every transmission,
    reception and idle slot between [start] and [finish]. Receptions are
    the radio's (a node caught in a collision pays nothing — it decoded
    nothing). Under a fault plan, senders the replay silenced (crashed,
    message-less, jitter-asleep) pay no transmit energy, and corrupted
    receptions pay nothing; with {!Fault.is_noop} the report is
    byte-identical to the fault-free one. [prices] defaults to tx 20,
    rx 5, idle 0.1 per slot. *)
val charge :
  ?prices:prices ->
  ?allow_resend:bool ->
  ?faults:Fault.t ->
  Mlbs_core.Model.t ->
  Mlbs_core.Schedule.t ->
  report
