(** The scheduling daemon: a long-running service that accepts solve
    requests over a Unix-domain (and optionally TCP) socket, dispatches
    them onto a {!Mlbs_util.Pool} of worker domains behind a bounded
    admission queue, and serves repeats from a content-addressed
    schedule cache.

    Flow of one request (see DESIGN.md §7):
    + a connection thread decodes the frame and resolves the topology
      (generator parameters are memoised, explicit adjacencies rebuilt),
      giving the canonical {!Mlbs_graph.Graph.digest};
    + the schedule cache is probed under the content address
      [digest:policy:rate:wake-seed:source:start] — a hit replies
      immediately, without touching the solvers;
    + a miss is admitted to the bounded queue — or, when
      [queue_capacity] solves are already waiting, shed with an explicit
      [Reply_rejected] carrying a retry hint (the daemon never buffers
      without bound);
    + the dispatcher drains the queue in batches over the pool's
      domains, inserts results into the cache, and wakes the waiting
      connection threads.

    A [Reschedule] frame (base request + topology delta) is answered as
    its derived request ({!derived_request}): the daemon applies the
    delta to the resolved base graph, builds the edited graph's
    resolved record, and then follows the flow above — same lookup,
    same cache line as a plain [Request] for that adjacency, same
    solve on a miss.

    A [Put] frame (peer cache-fill) is installed only when its
    schedule replays clean under the request's model
    ({!Mlbs_sim.Validate.check}); otherwise it is refused with
    [Reply_error] and counted in [server/put_refused].

    Served schedules are byte-identical to a direct
    {!Mlbs_core.Scheduler.run} on the same request, at any [jobs],
    cache hit or miss — {!solve} below is the one solve path, shared
    by the dispatcher, [mlbs loadgen --verify] and the tests. *)

type config = {
  socket_path : string option;  (** Unix-domain listener *)
  tcp_port : int option;  (** optional TCP listener on 127.0.0.1 *)
  jobs : int;  (** solver pool size, as in [Pool.create] *)
  queue_capacity : int;  (** admission bound; 0 rejects every miss *)
  cache_capacity : int;  (** schedule-cache LRU entries *)
  cache_dir : string option;
      (** when set: warm the cache from this directory on start and
          persist the hottest entries back on shutdown *)
  persist_limit : int;  (** how many MRU entries to persist *)
  allowed_models : Mlbs_phy.Interference.t list option;
      (** interference models this daemon serves; [None] = all. A
          request for any other model is refused with [Reply_error]
          before topology resolution. *)
  improve_budget : int;
      (** candidate evaluations per background polish pass; 0 (the
          default) disables the improver entirely — every served
          schedule then stays byte-identical to {!solve}. *)
}

(** Defaults from {!Mlbs_workload.Config.default}: jobs = all cores,
    queue 64, cache 512, persist 64, no TCP, socket required,
    improvement off. *)
val default_config : socket_path:string -> config

(** A running daemon. *)
type t

(** [start cfg] binds the listeners ({!Acceptor.bind}), spawns the
    accept and dispatcher threads (and the improver when
    [improve_budget > 0]) and returns. Raises [Failure] when no
    listener is configured or a bind fails. Enables the {!Mlbs_obs}
    metrics registry (the server's own counters live under
    [server/…]). The connection frames the shell does not answer itself
    are decoded and served here. *)
val start : config -> t

(** [stop t] initiates shutdown: stops accepting, lets queued solves
    finish, wakes everything. Idempotent, safe from signal handlers and
    connection threads (the [Shutdown] frame calls it). *)
val stop : t -> unit

(** [wait t] blocks until the daemon has stopped, then releases
    everything: joins the threads, shuts the pool down, persists hot
    cache entries when [cache_dir] is set, closes and unlinks the
    sockets. *)
val wait : t -> unit

(** [run cfg] is [start] + [wait] — serve until {!stop} is called from
    a signal handler or a client sends [Shutdown]. *)
val run : config -> unit

(** The actual bound TCP port, [None] without a TCP listener. With
    [tcp_port = Some 0] the kernel picks an ephemeral port; this is how
    callers (fleet spawning, bench, tests) learn it. *)
val tcp_port : t -> int option

(* ------------------------------------------------------------------ *)

(** [solve req] is the reference solve path: build the topology, derive
    the model and source, run the scheduler — no daemon, no cache. The
    daemon's replies carry exactly this schedule. Raises [Failure] on
    unsatisfiable requests (bad source, disconnected density, …). *)
val solve : Codec.request -> Codec.stats * Mlbs_core.Schedule.t

(** [model_of req] rebuilds the interference model [solve req] runs
    under — what a client needs to radio-replay a served schedule (the
    version-upgrade branch of [mlbs loadgen --verify] and [mlbs request
    --verify]). *)
val model_of : Codec.request -> Mlbs_core.Model.t

(** [cache_key req] is the content address the daemon files [req]
    under: canonical graph digest + policy + rate + wake-seed + source
    + start. Exposed for tests. *)
val cache_key : Codec.request -> string

(** [derived_request base delta] is the plain request equivalent to
    [Reschedule { base; delta }]: the edited graph shipped as an
    explicit adjacency, with the base's resolved source pinned. The
    daemon's reply to the reschedule is byte-identical to its reply to
    this request, and both share one cache line — the reference
    comparator for [mlbs loadgen --churn --verify] and the tests.
    Raises like {!solve} on unresolvable bases or malformed deltas. *)
val derived_request : Codec.request -> Codec.delta -> Codec.request

(** A request's resolved topology: its network, graph digest and
    source. The daemon memoises generator topologies in a
    [resolved Cache.t]; the fleet front keeps one too. *)
type resolved

(** [reschedule_key ?memo base delta] is
    [cache_key (derived_request base delta)] — the address the daemon
    files the reschedule's answer under — computed from the edited
    graph without the adjacency round trip. [memo] memoises [base]'s
    generator topology as the daemon does. The fleet front routes a
    [Reschedule] by it. Raises like {!derived_request}. *)
val reschedule_key : ?memo:resolved Cache.t -> Codec.request -> Codec.delta -> string

(* --------------------- cache persistence ------------------------- *)

(** One cached solve. [version] counts the strictly-better
    Validate-clean upgrades installed on this content address (0 = the
    deterministic {!solve} result). [origin] is the request the entry
    answers; the background improver needs it to rebuild the model, so
    entries warmed from disk ([None]) are never polished. [attempts]
    counts polish passes spent on the entry — it salts the improver's
    seed and caps fruitless re-polish work. *)
type entry = {
  stats : Codec.stats;
  schedule : Mlbs_core.Schedule.t;
  version : int;
  origin : Codec.request option;
  attempts : int Atomic.t;
}

(** [entry_of ?origin ?version (stats, schedule)] builds an entry
    (defaults: no origin, version 0, zero attempts). *)
val entry_of : ?origin:Codec.request -> ?version:int -> Codec.stats * Mlbs_core.Schedule.t -> entry

(** [polish_once t ~budget] runs one background-improvement pass by
    hand: pick the least-attempted entry among the hottest few that
    still carry an origin request, run a [budget]-bounded
    {!Mlbs_search.Improve.improve} over it, and install a
    strictly-better Validate-clean result under [version + 1]. Returns
    [true] iff an upgrade was installed. This is exactly what the
    improver thread does in idle dispatcher cycles when the daemon
    runs with [improve_budget > 0]; exposed so tests can drive the
    polishing loop deterministically. *)
val polish_once : t -> budget:int -> bool

(** [save_cache ~dir ~limit cache] writes the [limit] hottest entries
    (MRU first) into [dir] — an [index.txt] plus one
    {!Mlbs_workload.Persist} schedule file per entry — creating [dir]
    if needed. Returns the number persisted. *)
val save_cache : dir:string -> limit:int -> entry Cache.t -> int

(** [load_cache ~dir cache] warms [cache] from a directory written by
    {!save_cache}, restoring the recency order; unreadable entries are
    skipped. Returns the number loaded (0 when [dir] has no index).
    Raises [Failure] when the index is not a v2 index. *)
val load_cache : dir:string -> entry Cache.t -> int
