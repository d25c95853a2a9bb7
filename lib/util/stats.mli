(** Small descriptive-statistics helpers for the experiment harness.

    Every figure in the paper plots a latency averaged over random
    deployments; these helpers compute the summary rows that
    [Mlbs_workload.Report] prints. *)

(** Summary of a sample: count, mean, standard deviation (population),
    min, max, and median. *)
type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

(** [mean xs] is the arithmetic mean. Raises [Invalid_argument] on an
    empty list. *)
val mean : float list -> float

(** [stddev xs] is the population standard deviation. *)
val stddev : float list -> float

(** [median xs] is the median (average of middle two for even length). *)
val median : float list -> float

(** [summarize xs] computes all summary fields in one pass over a sorted
    copy. Raises [Invalid_argument] on an empty list. *)
val summarize : float list -> summary

(** [improvement ~baseline ~ours] is the fractional latency reduction
    [(baseline - ours) / baseline]; the paper reports these as "70%
    improvement" style numbers. Raises [Invalid_argument] when
    [baseline <= 0]. *)
val improvement : baseline:float -> ours:float -> float
