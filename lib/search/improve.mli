(** Anytime schedule improvement: guided local search (GLS) + variable
    neighborhood search (VNS) over completed broadcast schedules.

    The engine never mutates the schedule it was given: moves are
    expressed as {!Mlbs_core.Istate} apply–probe–undo sequences over a
    private working copy, and a candidate replaces the incumbent only
    when it is {e strictly} better in true latency and passes a full
    {!Mlbs_sim.Validate} radio replay under the instance's interference
    model — so every schedule this module ever returns is exactly as
    trustworthy as the constructions it starts from. The search is
    model-generic: it manipulates schedules purely through the model's
    own candidate/colouring/conflict primitives, so it runs unchanged
    against the Udg, Sinr and Multichannel backends.

    Neighborhoods (all truncate-and-rebuild around a pivot step [p],
    with the prefix [0..p-1] replayed incrementally and the suffix
    greedily re-completed):

    - {e compress}: merge step [p+1]'s already-informed, awake senders
      into step [p], trying to shave a slot outright;
    - {e drop}: remove one sender from step [p], freeing its conflict
      edges for the rebuilt suffix;
    - {e swap}: replace one sender of step [p] with a different
      candidate of that slot;
    - {e re-colour}: discard step [p]'s class choice and re-run the
      penalty-aware greedy colouring from there.

    GLS penalises congested conflict features — senders whose conflict
    edges into the next step forced coverage to wait — and evaluates
    candidates against latency {e plus} penalties, so stagnation
    deforms the landscape instead of stopping the search. The VNS
    driver widens the pivot window on stagnation and resets to the
    incumbent when a cycle of escalations comes up dry.

    Determinism: the whole search is a pure function of (model,
    schedule, seed, budget) — it draws randomness only from
    {!Mlbs_prng.Rng}. [budget = 0] returns the input schedule value
    itself, so the encoded reply bytes cannot change. *)

type outcome = {
  schedule : Mlbs_core.Schedule.t;
      (** best schedule found; the input value itself when no strictly
          better Validate-clean candidate was accepted *)
  improved : bool;  (** [elapsed schedule < elapsed input] *)
  evals : int;  (** candidate constructions actually performed *)
  accepted : int;  (** moves accepted into the working schedule *)
  penalty_bumps : int;  (** GLS penalty increments applied *)
  penalty_resets : int;  (** penalty wipes on VNS cycle restarts *)
  escalations : int;  (** VNS neighborhood-size escalations *)
}

(** [improve ?seed ~budget model schedule] runs [budget] candidate
    evaluations of GLS/VNS local search from [schedule], which must be
    a schedule for [model]'s node count. Updates the
    [search/improve/*] metrics and records a ["search"] trace span when
    the registries are enabled. Raises [Invalid_argument] on a node
    count mismatch. *)
val improve :
  ?seed:int ->
  budget:int ->
  Mlbs_core.Model.t ->
  Mlbs_core.Schedule.t ->
  outcome
