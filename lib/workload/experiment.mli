(** Running scheduling policies over seeded deployments and collecting
    the per-instance measurements behind each figure. *)

(** One deployed instance: the network, the chosen source, and [d], the
    source's eccentricity (the hop distance to the farthest node, used
    by the analytical bounds). *)
type instance = { net : Mlbs_wsn.Network.t; source : int; d : int }

(** [make_instance cfg ~n ~seed] deterministically generates the
    deployment and source for one (node count, seed) point. *)
val make_instance : Config.t -> n:int -> seed:int -> instance

(** Graceful-degradation measurement of one policy under a fault plan.
    (Declared before {!measurement} so the shared [policy] label keeps
    resolving to [measurement] in unannotated client code.) *)
type fault_measurement = {
  policy : string;
  delivery : float;  (** alive nodes informed / alive nodes *)
  latency : float;  (** observed elapsed slots *)
  stretch : float;
      (** latency vs the same policy's fault-free run (1 for static
          schedules, which cannot adapt; 0 when nothing was delivered) *)
  retransmissions : int;
  energy_overhead : float;
      (** total energy vs the same policy's fault-free run *)
}

(** Result of one policy on one instance. [exactish] is false when the
    M-search fell back to lookahead (baselines and E-model are always
    search-free, reported as true). *)
type measurement = {
  policy : string;
  elapsed : int;  (** end-to-end latency in rounds/slots *)
  transmissions : int;
  valid : bool;  (** radio replay verdict *)
}

(** [run_sync cfg inst] measures the paper's four synchronous policies
    (26-approx, OPT, G-OPT, E-model) on the instance. Because the
    greedy classes are a subset of OPT's choice space, the reported OPT
    latency is the better of the OPT and G-OPT schedules — the budget-
    bounded OPT search must never appear worse than its own
    restriction. *)
val run_sync : Config.t -> instance -> measurement list

(** [run_async cfg ~rate inst] measures the duty-cycle policies
    (17-approx, OPT, G-OPT, E-model) with a wake schedule derived
    deterministically from the instance (seeded per node count). *)
val run_async : Config.t -> rate:int -> inst_seed:int -> instance -> measurement list

(** [mean_by_policy runs] averages elapsed latency per policy label over
    a list of per-instance measurement lists, preserving policy
    order. *)
val mean_by_policy : measurement list list -> (string * float) list

(** [fault_plan cfg ~inst_seed ?jitter ~loss inst] compiles the sweep's
    deterministic fault plan for one instance: Bernoulli [loss] on every
    link, plus — when [cfg.crash_fraction > 0] — unrecovered crashes of
    non-source nodes sampled inside the window [1, 8d]. Seeded from
    [cfg.fault_seed] and the instance seed only. *)
val fault_plan :
  Config.t -> inst_seed:int -> ?jitter:int -> loss:float -> instance -> Mlbs_sim.Fault.t

(** [run_faulty cfg ?rate ~inst_seed ?jitter ~loss inst] measures the
    reliability sweep's four policies under the instance's fault plan:
    persistent flooding and the distributed protocol re-run under the
    plan (retransmissions stretch their latency, delivery holds up);
    the static G-OPT and E-model schedules are replayed as-is through
    {!Mlbs_sim.Validate.check_under_faults} (latency fixed, delivery
    pays). [rate] switches the model to duty-cycled; [jitter] (duty
    cycle only) desynchronises wake clocks. All four run under
    [cfg.model]. *)
val run_faulty :
  Config.t ->
  ?rate:int ->
  inst_seed:int ->
  ?jitter:int ->
  loss:float ->
  instance ->
  fault_measurement list
