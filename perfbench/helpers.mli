(** Pure helpers of the benchmark: order statistics, the tail-percentile
    rule, the zipf sampler, plan digests and the span arithmetic behind
    the layer-coverage ratio. Kept free of I/O so the tests can pin
    them down. *)

(** [quartiles xs] is [(q1, median, q3)] computed exactly as Python's
    [statistics.quantiles(xs, n=4)] (the default "exclusive" method).
    A single value is its own three quartiles. Raises
    [Invalid_argument] on an empty list. *)
val quartiles : float list -> float * float * float

(** [spread xs] is [(q3 - q1) / median]: the run-to-run spread of a
    metric as a share of its median ([0.] when the median is [0.]). *)
val spread : float list -> float

val median : float list -> float

(** The tail ladder, as [(label, numerator, denominator)]: p50, p75,
    p90, p95, p99 and p99.9. *)
val ladder : (string * int * int) list

(** [beyond ~n (num, den)] is how many of [n] sorted samples lie past
    the nearest-rank percentile [num/den]. *)
val beyond : n:int -> int * int -> int

(** [tail_rank n] picks the highest ladder percentile that leaves at
    least ten of [n] samples beyond it (p50 when none does) and returns
    [(label, fraction, samples_beyond)]. *)
val tail_rank : int -> string * (int * int) * int

(** [percentile sorted (num, den)] is the nearest-rank percentile of an
    ascending array. Raises [Invalid_argument] when it is empty. *)
val percentile : float array -> int * int -> float

(** A zipf(s) distribution over ranks [0 .. n-1] (rank 0 hottest). *)
type zipf

val zipf : n:int -> s:float -> zipf

(** [zipf_draw z u] maps a uniform [u] in [[0, 1)] to a rank. *)
val zipf_draw : zipf -> float -> int

(** [digest_lines lines] is the hex MD5 of the lines joined by
    newlines — the printed fingerprint of a request plan. *)
val digest_lines : string list -> string

(** [self_time ~t0 ~t1 children] is the span [[t0, t1]]'s duration
    minus the part of it covered by the union of the child intervals
    (clipped to the span). *)
val self_time : t0:float -> t1:float -> (float * float) list -> float

(** [coverage ~layers ~end_to_end] is [sum layers / end_to_end] ([0.]
    when [end_to_end <= 0.]): how much of the end-to-end time the
    measured layers account for. *)
val coverage : layers:float list -> end_to_end:float -> float
