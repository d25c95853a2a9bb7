(** Metrics registry: named counters, gauges and fixed-bucket
    histograms with O(1) hot-path updates.

    Storage is sharded per domain (reached through domain-local
    storage), so updates from the experiment pool's workers never
    contend; {!snapshot} merges the shards with order-independent folds
    only — counters and histogram buckets sum, gauges take the max — so
    collected totals are identical at any [--jobs] when the underlying
    work is deterministic.

    Every update is guarded by {!Obs.metrics_enabled}: with the
    registry disabled (the default) a probe costs one branch.

    Registration is idempotent: [counter name] returns the same handle
    for the same name (and raises [Invalid_argument] if the name is
    already bound to a different kind). Handles are cheap and intended
    to be created once, at module initialisation.

    [snapshot] and [reset] are meant for quiescent points (between
    batches / after a run): a mid-flight snapshot can miss in-flight
    updates but never observes torn values. *)

type counter
type gauge
type histogram

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

(** [incr c] / [add c n] bump a counter. Counters merge by summing
    across domains. *)
val incr : counter -> unit

val add : counter -> int -> unit

(** [set g v] records a gauge level. Gauges merge by taking the max
    across domains (order-independent); set them from one domain, or
    use them as high-watermarks. *)
val set : gauge -> int -> unit

(** [observe h v] adds one observation to a histogram. Buckets are
    powers of two: bucket [0] holds [v <= 0], bucket [i >= 1] holds
    [2^(i-1) <= v < 2^i], saturating at the last of 40 buckets. *)
val observe : histogram -> int -> unit

(** [bucket_lt i] is the exclusive upper bound of bucket [i]. *)
val bucket_lt : int -> int

type value =
  | Count of int  (** counter total *)
  | Level of int  (** gauge, max across domains *)
  | Dist of { counts : int array; total : int; sum : int }
      (** histogram: per-bucket counts, observation count, value sum *)

(** [snapshot ()] merges every domain's shard and returns the metrics
    sorted by name. *)
val snapshot : unit -> (string * value) list

(** [to_int v] is a counter's total, a gauge's level or a histogram's
    observation count. *)
val to_int : value -> int

(** [counter_value name] is [to_int] of [name]'s merged value (0 when
    never registered). *)
val counter_value : string -> int

(** [reset ()] zeroes every shard. Call at a quiescent point. *)
val reset : unit -> unit
