(** Unified entry point over the four scheduling policies of the paper
    (Algorithm 3 plus the prior-work baselines) — what the experiment
    harness, CLI and examples drive. *)

(** A scheduling policy. *)
type policy =
  | Baseline
      (** The hop-distance layered scheme: the 26-approximation under
          [Sync], the 17-approximation under [Async]. *)
  | Emodel
      (** Greedy colors + Eq. (10) selection by the proactive 4-tuple
          [E]. *)
  | Gopt of Mcounter.budget
      (** G-OPT (paper Eq. 7 sync / Eq. 8 async): at every advance,
          restrict the choice space to the classes of the extended
          greedy color scheme (Algorithm 1, {!Choices.Greedy}) and pick
          the class whose time counter [M] is smallest, searched by
          {!Mcounter.plan} within the budget (a class that informs a
          strict subset of what a sibling class informs is never
          chosen). The paper finds G-OPT within 2 rounds of OPT in the
          synchronous system and identical in light duty cycle, at a
          fraction of OPT's search cost; the experiments reproduce that
          comparison. *)
  | Opt of { budget : Mcounter.budget; max_sets : int }
      (** OPT (paper Eq. 5 sync / Eq. 6 async), the optimisation
          target: at every advance, consider {e any} valid color set of
          Eq. (1) — realised as the maximal conflict-free candidate
          subsets ({!Choices.All}), which dominate by monotonicity, with
          at most [max_sets] per state — and pick the set minimising
          [M]. This is the paper's "ultimate goal [...] achieved with an
          off-line calculation, as we did in the simulator": exact on
          the fixture graphs and on instances within the state budget,
          beam-lookahead otherwise (see DESIGN.md §4). *)

(** [Gopt] with {!Mcounter.default_budget}. *)
val gopt : policy

(** [Opt] with {!Mcounter.default_budget} and at most 64 color sets per
    state. *)
val opt : policy

(** [name p] is the short label used in reports ("26-approx" /
    "17-approx" / "E-model" / "G-OPT" / "OPT"); the baseline label
    depends on the model, so [name] takes the system. *)
val name : system:Model.system -> policy -> string

(** [run model policy ~source ~start] computes the broadcast schedule
    under the policy. *)
val run : Model.t -> policy -> source:int -> start:int -> Schedule.t

(** [warm_seeds policy snap ~n ~valid] packages [snap] as a [?seeds]
    argument for {!run_warm} when the policy can reuse it — a
    search-based policy whose choice space and budget pass
    {!Mcounter.snapshot_reusable} for [n]-node models — and [None]
    otherwise. [valid] is the per-entry validity predicate; its
    soundness contract is documented at {!Mcounter.plan_snapshot}. *)
val warm_seeds :
  policy ->
  Mcounter.snapshot ->
  n:int ->
  valid:(Model.Bitset.t -> bool) ->
  (Mcounter.snapshot * (Model.Bitset.t -> bool)) option

(** [run_warm model policy ?seeds ~source ~start ()] is {!run} with
    warm-start plumbing: for the search-based policies ([Gopt], [Opt])
    it returns the memo {!Mcounter.snapshot} of the solve and accepts
    seeds from a previous one (see {!Mcounter.plan_snapshot} for the
    validity contract); for [Baseline]/[Emodel] it runs plainly and
    returns no snapshot. The schedule is byte-identical to [run]'s on
    the same inputs, seeded or not — the scheduling service's
    cache-transparency invariant depends on this. *)
val run_warm :
  Model.t ->
  policy ->
  ?seeds:Mcounter.snapshot * (Model.Bitset.t -> bool) ->
  source:int ->
  start:int ->
  unit ->
  Schedule.t * Mcounter.snapshot option

(** [all_policies] in the order the paper's figures list them:
    baseline, OPT, G-OPT, E-model. *)
val all_policies : policy list
