(** The time counter [M] (paper Eq. 4) and the schedule search built on
    it (Eq. 5–8).

    [M(W, t)] is the earliest finish time of a broadcast whose progress
    is [W] just before slot [t], assuming every later advance is also
    chosen optimally within the given choice space:

    - [M(N, t) = t − 1]  (nothing left to send), and
    - [M(W, t) = min over color sets C of M(W + A_C, t + 1)].

    The paper computes this "with an off-line calculation" in its
    simulator. We realise it as an exact, memoised branch-and-bound with
    a budget on explored states: one recursion over [(W, slot)] for the
    round-based and the duty-cycled system alike, which jumps to the
    next active slot [t] (under Sync, the slot itself) and memoises the
    span [M(W, t) − t + 1] under the key [(W, key slot)]. The key slot
    is [t] under Async and [0] under Sync (time-shift invariance,
    below), so a sync entry holds the number of advances still needed.

    The recursion is a cutoff search (IDA*/alpha style): every call
    carries a [limit] and returns the exact [M] when [M ≤ limit], and
    otherwise a lower bound [> limit]. Each candidate is scored against
    [cap = min limit (incumbent − 1)]: a result [≤ cap] is exact and
    becomes the incumbent, a larger one refutes the candidate without
    solving it. When no candidate lands within the limit the call
    returns the least child bound (at least its floor). Exact spans and
    lower-bound spans share the one transposition table ({!Ttable}): a
    bound is stored negated, only exact entries answer child probes,
    seed a search or enter a snapshot, and an exact result overwrites a
    bound for the same key. The top-level search runs with no limit.
    Each exact entry also holds its move, the advance the search chose
    there, and plan construction replays those moves: an exact plan
    colours each expanded position once and scores nothing again. A
    position seeded from a snapshot holds no move; there the plan picks
    the advance with the same candidate fold, against the exact finish
    the table holds, which chooses the same advance the replay would.
    A degraded plan scores with no limit.

    The hop-distance bound and the {!Bounds} floors skip candidates
    whose finish must exceed the cap, and the transposition table shares
    values between paths; both are value-safe. The search also never
    expands a color set whose coverage (the nodes it newly informs) is
    a strict subset of a sibling's: in the {!Choices.All} space that is
    value-safe by monotonicity (below), and among the {!Choices.Greedy}
    classes it is part of the space G-OPT searches (the greedy classes
    are not monotone; DESIGN.md §10). Ties keep the earlier candidate, so in
    exact mode the schedule is the one a plain memoised recursion over
    that space would pick. When an instance exhausts the budget,
    evaluation degrades to a beam-limited lookahead with greedy-rollout
    tails, which is the standard realisation of such heuristics;
    DESIGN.md §4 documents the substitution. The fixture graphs of
    Tables II–IV are solved exactly.

    Two structural facts the implementation exploits (both are covered
    by property tests):
    - {b monotonicity} (the {!Choices.All} space): [W ⊆ W'] implies
      [M(W', t) ≤ M(W, t)], so only maximal conflict-free sender sets
      need be searched, idling at an active slot is never beneficial,
      and a coverage-dominated set is never needed;
    - {b time-shift invariance} (sync only): [M(W, t) − t] depends only
      on [W], so the memo table can key on [W] alone (key slot [0]). *)

module Bitset = Mlbs_util.Bitset

(** Search budget. [max_states]: memo entries before the exact search
    gives up. [lookahead]: fallback search depth. [beam]: choices
    expanded per fallback node (ranked by hop lower bound, then
    coverage). *)
type budget = { max_states : int; lookahead : int; beam : int }

(** [{ max_states = 200_000; lookahead = 2; beam = 4 }]. *)
val default_budget : budget

(** Result of evaluating [M]: the finish slot, whether it is exact, and
    how many memo states the search used. *)
type evaluation = { finish : int; exact : bool; states : int }

(** [evaluate ?limit model space ~budget ~w ~slot] is [M(w, slot)]
    within the choice space. With a [limit] (default [max_int]) an exact
    search returns [M] when [M ≤ limit] and otherwise a lower bound in
    [(limit, M]]; [exact] says the search stayed within budget (a
    degraded evaluation ignores the limit). Raises [Failure] when some
    node is unreachable (the broadcast cannot complete). *)
val evaluate :
  ?limit:int ->
  Model.t ->
  Choices.t ->
  budget:budget ->
  w:Bitset.t ->
  slot:int ->
  evaluation

(** [plan model space ~budget ~source ~start] runs the search and
    materialises a schedule achieving the evaluated finish time (exact
    mode) or the lookahead policy's finish time (fallback mode). *)
val plan :
  Model.t -> Choices.t -> budget:budget -> source:int -> start:int -> Schedule.t

(** A completed plan's memo table, frozen: every exact
    ((informed set, key slot) → span) the search established, plus
    enough metadata to decide whether it may seed a later search.
    Snapshots are immutable and safe to share across domains. *)
type snapshot

(** Number of frozen memo entries. *)
val snapshot_entries : snapshot -> int

(** The frozen entries as [(W, key slot, span)]: the key slot is [0]
    under Sync and the active slot [t] under Async, and the span is the
    exact [M(W, t) − t + 1]. *)
val snapshot_bindings : snapshot -> (Bitset.t * int * int) list

(** Whether the capturing solve stayed exact end to end. *)
val snapshot_exact : snapshot -> bool

(** [snapshot_reusable s ~space ~budget ~n] gates warm starts: the
    capture must have been exact, over the same choice space and node
    count, and comfortably inside the state budget (a 4x margin), so a
    seeded re-solve can never stay exact where a cold one would have
    degraded to the lookahead fallback. The margin counts the capturing
    lineage's expanded states (refuted nodes included), not
    {!snapshot_entries}: a snapshot keeps exact entries only, which are
    usually far fewer. *)
val snapshot_reusable : snapshot -> space:Choices.t -> budget:budget -> n:int -> bool

(** [plan_snapshot ?seeds model space ~budget ~source ~start] is
    {!plan} that also captures the snapshot of its memo table, and
    optionally seeds the search from a previous snapshot.

    [seeds = (snap, valid)] pre-loads every entry of [snap] whose
    informed set satisfies [valid] before the search runs. Soundness is
    the caller's contract: [valid w] must certify that the entry's
    value is unchanged on this model, so a snapshot only seeds searches
    of the same system (sync, or the same wake schedules). Two
    predicates are used in this repository:
    - same graph, different [source]/[start]: every entry is valid
      (the value function never depends on the source), so
      [fun _ -> true];
    - edited graph: valid iff every {!Mlbs_graph.Graph.diff_endpoints}
      node is inside [w] — the search below [w] only reads edges with
      an uninformed endpoint, and every changed edge has both
      endpoints in the diff.

    Because seeded values equal what the search would have recomputed,
    the returned schedule is byte-identical to an unseeded
    {!plan} in exact mode; a seeded search that hits the budget is
    transparently rerun without seeds so the degraded path matches a
    cold solve's exactly. Callers should gate with
    {!snapshot_reusable}. *)
val plan_snapshot :
  ?seeds:snapshot * (Bitset.t -> bool) ->
  Model.t ->
  Choices.t ->
  budget:budget ->
  source:int ->
  start:int ->
  Schedule.t * snapshot

(** [rollout_finish model space ~w ~slot] is the finish slot of the
    cheap deterministic rollout policy (at every state, take the choice
    minimising the hop lower bound, then maximising coverage) — an upper
    bound on [M]. *)
val rollout_finish : Model.t -> Choices.t -> w:Bitset.t -> slot:int -> int

(** [hop_lower_bound model ~w] is the largest hop distance from [W] to
    an uninformed node — an admissible bound on remaining advances
    ([max_int] when unreachable, [0] when complete). *)
val hop_lower_bound : Model.t -> w:Bitset.t -> int

(** [prewarm ~n] pre-sizes this domain's search scratch (the
    incremental {!Istate} and the BFS workspace) for [n]-node models,
    so the first evaluation on this domain does not allocate it inside
    a timed region. Idempotent. *)
val prewarm : n:int -> unit
