(** Schedule validation on top of the radio replay.

    A valid broadcast schedule must (a) be well-formed (informed, awake,
    send-once senders and truthful claims), (b) be collision-free —
    conflict awareness is the paper's whole point — and (c) inform every
    node. Every scheduler's output is pushed through this check in the
    test suite and (optionally) in the experiment harness. *)

type report = {
  ok : bool;
  collisions : int;  (** collided (node, slot) pairs observed *)
  missing : int list;  (** nodes never informed *)
  violations : string list;  (** well-formedness problems *)
}

(** [check model schedule] replays and summarises. *)
val check : Mlbs_core.Model.t -> Mlbs_core.Schedule.t -> report

(** [check_exn model schedule] raises [Failure] with a descriptive
    message when the schedule is invalid. *)
val check_exn : Mlbs_core.Model.t -> Mlbs_core.Schedule.t -> unit

(** [check_lossy model schedule] validates the run of a lossy protocol
    (the on-line runners of [Mlbs_proto], which pass it under the model
    they ran on): collisions, retransmissions and slots that overflow
    the channels are tolerated, collisions counted; [ok] still requires full coverage, truthful per-slot
    claims, and senders that are informed and awake. *)
val check_lossy : Mlbs_core.Model.t -> Mlbs_core.Schedule.t -> report

(** Verdict of a replay under a {!Fault} plan. Full coverage is not
    required — crashes legitimately cut nodes off — but every reception
    the replay granted must be {e conflict-free under the fault trace}:
    explainable as exactly one audible (alive, informed, truly-awake)
    adjacent sender whose packet survived its per-link loss roll. *)
type fault_report = {
  ok : bool;  (** no violations — all receptions conflict-free *)
  delivered : int;
      (** nodes informed and alive in the plan's end state (once every
          crash window has been applied) *)
  alive : int;  (** nodes alive in the plan's end state *)
  delivery_ratio : float;  (** delivered / alive (0 when none alive) *)
  latency : int;  (** schedule elapsed slots *)
  collisions : int;
  lost : int;  (** receptions erased by packet corruption *)
  violations : string list;
}

(** [check_under_faults ?allow_resend model ~faults schedule] replays
    the schedule under the fault plan and independently re-derives the
    informed progression from the outcome events, re-querying the plan
    ([Fault.delivers]/[alive] are pure) for every granted reception.
    Crash-only plans make this the failure-injection measurement too:
    [delivered]/[alive] are the alive nodes the broadcast still reaches.
    [allow_resend] defaults to false; pass [true] for retransmitting
    protocols, which also accepts their channel overflow. *)
val check_under_faults :
  ?allow_resend:bool ->
  Mlbs_core.Model.t ->
  faults:Fault.t ->
  Mlbs_core.Schedule.t ->
  fault_report
