(** Ablations of the design choices DESIGN.md calls out: what happens to
    end-to-end latency when one ingredient of the paper's pipeline is
    replaced.

    - {b class selection}: Eq. (10)'s farthest-from-edge [E] rule vs the
      hop-distance-to-source metric prior work uses, vs always firing
      the largest (first greedy) class;
    - {b greedy color order}: most-receivers-first (Eq. 2) vs arbitrary
      node-id order;
    - {b wake-schedule family}: uniform-per-frame vs Bernoulli vs
      fixed-phase duty cycling;
    - {b search depth}: the lookahead budget of the bounded M-search. *)

(** How the relay class is chosen at each advance (all selectors operate
    on the same Algorithm-1 classes). *)
type selector =
  | By_emodel  (** Eq. (10): largest applicable E value *)
  | By_hop_to_source
      (** the prior metric: the class holding the node farthest from the
          source *)
  | First_class  (** always the class with the most receivers *)

(** [plan_with_selector model sel ~source ~start] runs the greedy-color
    pipeline with the given class selector. [By_emodel] is exactly
    [Emodel.plan]. *)
val plan_with_selector :
  Mlbs_core.Model.t -> selector -> source:int -> start:int -> Mlbs_core.Schedule.t

(** [plan_with_id_order model ~source ~start] replaces Algorithm 1's
    most-receivers-first ordering with ascending node id (keeping the
    conflict constraint), then always fires the first class — isolating
    the value of the receiver-count sort. *)
val plan_with_id_order :
  Mlbs_core.Model.t -> source:int -> start:int -> Mlbs_core.Schedule.t

(** [selector_table cfg ~n] compares the selectors (plus the id-order
    coloring) on synchronous deployments of [n] nodes. *)
val selector_table : Config.t -> n:int -> Mlbs_util.Tab.t

(** [wake_family_table cfg ~n ~rate] compares duty-cycle wake-schedule
    families under G-OPT and the E-model. *)
val wake_family_table : Config.t -> n:int -> rate:int -> Mlbs_util.Tab.t

(** [lookahead_table cfg ~n] compares G-OPT latency across fallback
    lookahead depths 0..3 with a deliberately tiny exact budget. *)
val lookahead_table : Config.t -> n:int -> Mlbs_util.Tab.t

(** [relay_set_table cfg ~n] separates the two costs bundled in the
    layered baseline: the layer synchronisation (vs pipelined G-OPT) and
    the relay set (all frontier nodes vs a CDS backbone, after Gandhi et
    al. [4]). Reports latency and transmissions. *)
val relay_set_table : Config.t -> n:int -> Mlbs_util.Tab.t

(** [localized_table cfg ~n ~rate] compares the localized (future-work)
    protocol against the centralized E-model, reporting latency,
    collisions and retransmissions. [rate = None] is the synchronous
    system. *)
val localized_table : Config.t -> n:int -> rate:int option -> Mlbs_util.Tab.t

(** [shape_table cfg ~n] runs the main synchronous policies over the
    four deployment shapes (uniform / clustered / corridor / jittered
    grid) — the robustness-to-deployment study. *)
val shape_table : Config.t -> n:int -> Mlbs_util.Tab.t

(** [protocol_table cfg ~n] compares broadcast *protocols* end to end:
    blind flooding (once and persistent), the localized scheme, and the
    centralized schedules — latency, collisions, retransmissions, and
    whether the network was covered at all (blind flooding's storm
    loses nodes). *)
val protocol_table : Config.t -> n:int -> Mlbs_util.Tab.t

(** [resilience_table cfg ~n ~kill_fraction] injects crash failures into
    each policy's precomputed schedule (killing the given fraction of
    non-source nodes, seeded) and reports the mean fraction of surviving
    nodes still reached — static schedules degrade; the persistent
    protocols route around. *)
val resilience_table : Config.t -> n:int -> kill_fraction:float -> Mlbs_util.Tab.t

(** [fault_table cfg ~n ~loss] runs the full fault plan (Bernoulli
    [loss] per link, plus [cfg.crash_fraction] crashes under
    [cfg.fault_seed]) through {!Experiment.run_faulty} and tabulates
    delivery ratio, latency, stretch, retransmissions and energy
    overhead per policy — the graceful-degradation companion to
    {!resilience_table}'s crash-only view. *)
val fault_table : Config.t -> n:int -> loss:float -> Mlbs_util.Tab.t

(** [report cfg] is every table above, blank-line separated, at the
    fixed sizes the evaluation cites (n = 150, or n = 100 for the
    duty-cycled and fault studies) over seeds 1–3 whatever
    [cfg.seeds]. Byte-identical at any [cfg.jobs]. *)
val report : Config.t -> string
