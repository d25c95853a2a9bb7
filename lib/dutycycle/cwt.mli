(** Cycle waiting time (CWT) — paper Table I:
    [t(u,v) = min { t_i − t | t_i ∈ T(v), t_i > t ∈ T(u) }], the time a
    node [u], ready at slot [t], waits until its successor [v] next
    wakes to forward.

    CWT is what the asynchronous E-model accumulates instead of hop
    counts (Eq. 11), and what makes relay selection diverse across
    neighbours in the duty-cycle system. *)

(** [wait sched ~at v] is the CWT from slot [at]: the delay until [v]'s
    first sending slot strictly after [at]. It depends only on [v]'s
    schedule, not on the waiting node. *)
val wait : Wake_schedule.t -> at:int -> int -> int

(** [expected_wait ~rate] is the mean CWT of a uniform-per-frame
    schedule observed from a uniform random slot, ≈ rate/2 + 1/2; used
    in analytical reports. *)
val expected_wait : rate:int -> float

(** [max_wait ~rate] is the worst-case CWT the paper uses in Theorem 1:
    two aligned schedules can force a wait of up to [2·rate] slots. *)
val max_wait : rate:int -> int
