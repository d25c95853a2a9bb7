(** Delta repair for dynamic topologies: the schedule of a solved
    broadcast after a topology delta.

    The engine takes the model and schedule of a completed solve, a
    topology delta (edges added/removed, nodes rewired), and optionally
    the solve's memo {!Mcounter.snapshot}. It

    + applies the delta with {!Mlbs_graph.Graph.edit} and binds the
      edited graph on {!Mlbs_wsn.Network.synthetic} geometry — the
      same recipe the scheduling service uses for explicit
      adjacencies — so daemon-side answers and direct calls agree byte
      for byte;
    + re-solves with {!Scheduler.run_warm}, seeding the M-counter memo
      with every snapshot entry whose informed set already contains
      all changed endpoints ({!Mlbs_graph.Graph.diff_endpoints}): the
      search below such a set only reads edges with an uninformed
      endpoint, and every changed edge has both endpoints in the diff,
      so the seeded values are exactly what a cold search would
      recompute.

    Consequently the repaired schedule is byte-identical to a full
    {!Scheduler.run} on the edited model (property-tested in
    [test/test_reschedule.ml]); the seeds only skip re-deriving values
    that cannot have changed. They do not make a repair cheaper than a
    re-solve: BENCH_9's churn rows read a repair/re-solve speedup of
    0.50–0.60× (the snapshot holds only exact entries, and the cut-off
    search it races is cheap), which is why the scheduling service
    answers a reschedule with a plain solve of the edited graph. *)

(** What a repair did, beyond the schedule itself. *)
type report = {
  schedule : Schedule.t;  (** the repaired schedule *)
  model : Model.t;  (** the edited model the schedule is for *)
  warm : bool;
      (** whether snapshot seeding was actually engaged (a reusable
          snapshot was supplied and passed {!Mcounter.snapshot_reusable}) *)
  snapshot : Mcounter.snapshot option;
      (** the repair's own memo snapshot, for chaining further repairs
          (search policies only) *)
}

(** [reschedule model policy ?snapshot ?snapshot_graph ?source
    ~old_schedule ~added ~removed ~rewired ()] repairs [old_schedule]
    after the topology delta. [model] must be the model
    [old_schedule] was solved on; the node count is fixed — deltas
    change edges only (see {!Mlbs_graph.Graph.edit} for the delta
    semantics and ordering). [source] defaults to
    [Schedule.source old_schedule]; the start slot is always
    [Schedule.start old_schedule].

    [snapshot] warm-starts the re-solve; it is ignored unless
    {!Scheduler.warm_seeds} accepts it for this policy.
    [snapshot_graph] names the graph the snapshot's solve ran on and
    defaults to [model]'s graph — pass it when chaining repairs, where
    the freshest snapshot belongs to the previously edited graph
    rather than the base. Seed validity is derived from the diff
    between [snapshot_graph] and the edited graph, so a stale or
    unrelated (same-size) graph only shrinks the usable seed set,
    never the correctness of the result.

    Raises [Invalid_argument] on malformed deltas and [Failure] when
    the edited graph disconnects the source from some node. *)
val reschedule :
  Model.t ->
  Scheduler.policy ->
  ?snapshot:Mcounter.snapshot ->
  ?snapshot_graph:Mlbs_graph.Graph.t ->
  ?source:int ->
  old_schedule:Schedule.t ->
  added:(int * int) list ->
  removed:(int * int) list ->
  rewired:(int * int list) list ->
  unit ->
  report
