(** Analytical latency bounds (paper Theorem 1 and §VI) — the
    "OPT-analysis" curves of Figures 3, 5 and 7.

    All bounds are expressed as an elapsed latency (rounds/slots from
    the source's transmission), with [d] the hop distance from the
    source to the farthest node. *)

(** Theorem 1, synchronous: [P(A) − t_s < d + 2], i.e. the pipelined
    optimum needs fewer than [d + 2] rounds. *)
val opt_sync : d:int -> int

(** Theorem 1, duty cycle: [P(A) − t_s < 2r(d + 2)] slots. *)
val opt_async : d:int -> rate:int -> int

(** The upper bound of Jiao et al. [12] the paper quotes: total delay up
    to [17·k·d] where [k] is the maximum wait between neighbours —
    [k = 2r] in our wake model. *)
val jiao17 : d:int -> rate:int -> int

(** The 26-approximation guarantee of Chen et al. [2]: latency within
    [26·d] of the optimal's trivial lower bound [d]. *)
val chen26 : d:int -> int

(** [source_depth model ~source] computes [d] for a concrete instance. *)
val source_depth : Model.t -> source:int -> int

(** {1 Search-side lower bounds}

    Admissible, incrementally-maintained bounds on the number of
    advances still needed from an {!Istate} position, used by the
    branch-and-bound in {!Mcounter}. *)

(** Which bound was decisive. *)
type kind =
  | Ecc  (** remaining eccentricity: the farthest uninformed node's BFS
             distance, carried by the istate's distance histogram *)
  | Packing
      (** uninformed-neighbour packing at the top distance layer: two
          forced parents sharing an uninformed neighbour must conflict
          in the final advance, so completion needs one extra advance *)

(** [remaining st] is [(r, k)] where [r] lower-bounds the advances
    (sync rounds / async active slots) still needed to complete the
    broadcast from [st]'s position — [0] when complete, [max_int] when
    some node is unreachable — and [k] names the decisive bound. Both
    bounds are admissible for synchronous and duty-cycled systems: the
    true remaining advance count is always ≥ [r], hence any completion
    from an advance at slot [t] finishes at slot ≥ [t + r - 1]. *)
val remaining : Istate.t -> int * kind
