(** Experiment configuration for regenerating the paper's evaluation
    (§V.A): node counts spanning densities 0.02–0.12 over a 50×50 sq-ft
    area with radius 10 ft, sources of eccentricity 5–8, several seeded
    deployments per point. *)

type t = {
  node_counts : int list;  (** one figure column per count *)
  seeds : int list;  (** deployment seeds averaged per point *)
  width : float;
  height : float;
  radius : float;
  min_ecc : int;  (** source eccentricity window, paper: 5 *)
  max_ecc : int;  (** paper: 8 *)
  budget : Mlbs_core.Mcounter.budget;  (** M-search budget for OPT/G-OPT *)
  opt_max_sets : int;  (** color-set enumeration cap for OPT *)
  jobs : int;
      (** worker domains for the experiment pool; instances fan out over
          [jobs] domains with byte-identical output at any setting
          (default: [Mlbs_util.Pool.default_jobs ()]) *)
  loss_rates : float list;
      (** x-axis of the reliability sweep (per-link Bernoulli loss) *)
  crash_fraction : float;
      (** fraction of non-source nodes crashed during the reliability
          sweep; 0 disables crash injection *)
  fault_seed : int;  (** master seed of every fault plan the sweep builds *)
  model : Mlbs_phy.Interference.t;
      (** interference model every solve and replay of the run binds
          (default {!Mlbs_phy.Interference.Udg}, the paper's protocol
          model) *)
}

(** The paper's full sweep: n ∈ {50,100,150,200,250,300}, 5 seeds. *)
val default : t

(** A reduced sweep (3 node counts, 2 seeds, tighter budgets) for smoke
    tests and [mlbs experiment --quick]. *)
val quick : t

(** The minimal sweep (one node count, one seed, smallest budgets) —
    sized for CI: the determinism gate and the bench smoke run finish
    in seconds. *)
val smoke : t

(** [densities t] is [node_counts] expressed as nodes per sq ft. *)
val densities : t -> float list
