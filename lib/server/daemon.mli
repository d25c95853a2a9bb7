(** The scheduling daemon: a long-running service that accepts solve
    requests over a Unix-domain (and optionally TCP) socket, dispatches
    them onto a {!Mlbs_util.Pool} of worker domains behind a bounded
    admission queue, and serves repeats from a content-addressed
    schedule cache.

    Flow of one request (see DESIGN.md §7):
    + a connection thread decodes the frame and resolves the topology
      (generator parameters are memoised, explicit adjacencies rebuilt),
      giving its {!Mlbs_wsn.Network.digest};
    + the schedule cache is probed under the content address
      ({!cache_key}) — a hit replies immediately, without building a
      model or touching the solvers;
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

    Every entry read back from [cache_dir] passes one gate: the
    schedule is installed under the address recomputed from its request
    only when its version is 0 and it replays clean under that
    request's model ({!Mlbs_sim.Validate.check}). A refused entry is counted in
    [server/put_refused]. No schedule is accepted off the wire: a [Put]
    frame from a client is answered with [Reply_error].

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
          persist the hottest entries back on shutdown ({!save_cache}) *)
  allowed_models : Mlbs_phy.Interference.t list option;
      (** interference models this daemon serves; [None] = all. A
          request for any other model is refused with [Reply_error]
          before topology resolution. *)
}

(** The [mlbs serve] defaults: jobs = all cores, queue 64, cache 512,
    no TCP, socket required. *)
val default_config : socket_path:string -> config

(** A running daemon. *)
type t

(** [start cfg] binds the listeners ({!Acceptor.bind}), spawns the
    accept and dispatcher threads and returns. Raises [Failure] when no
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

(** [instance req] is the model and source {!solve} schedules. A [Gen]
    request is the paper's recipe: [Deployment.paper_spec] with its
    radius sampled from [Rng.create seed], the wake schedule seeded by
    [seed], and the source drawn from a fresh [Rng.create seed] in the
    eccentricity window 5–8. The CLI builds its instances here, so a
    CLI run and a served request schedule the same instance by
    construction. Raises like {!solve}. *)
val instance : Codec.request -> Mlbs_core.Model.t * int

(** [solve req] is the reference solve path: {!instance}, then the
    scheduler — no daemon, no cache. The daemon's replies carry exactly
    this schedule and these stats but [solve_us]. [search_states]
    counts only the M-counter states of this solve, even while other
    domains search. Raises [Failure] on unsatisfiable requests (bad
    source, disconnected density, …). *)
val solve : Codec.request -> Codec.stats * Mlbs_core.Schedule.t

(** [model_of req] is [fst (instance req)] — the network [mlbs request
    --delta] and [mlbs loadgen --churn] drift. *)
val model_of : Codec.request -> Mlbs_core.Model.t

(** [cache_key req] is the content address the daemon files [req]
    under, a function of exactly what {!instance} reads:
    [network-digest:policy:rate:wake-seed:source:start:model], where
    the network digest covers the graph, the radius and every position
    and the wake seed is the request seed under a rate only. Lookups,
    disk loads, reschedules and the fleet front's routing all compute
    their address with the one function behind it. *)
val cache_key : Codec.request -> string

(** [derived_request base delta] is the plain request equivalent to
    [Reschedule { base; delta }]: the edited graph shipped as an
    explicit adjacency, with the base's resolved source pinned. The
    daemon's reply to the reschedule is byte-identical to its reply to
    this request, and both share one cache line — the reference
    comparator for [mlbs loadgen --churn --verify] and the tests.
    Raises like {!solve} on unresolvable bases or malformed deltas. *)
val derived_request : Codec.request -> Codec.delta -> Codec.request

(** A request's resolved topology: its network, the network's
    {!Mlbs_wsn.Network.digest} (computed once per resolve) and its
    source. The daemon memoises generator topologies in a
    [resolved Cache.t], so a hit never re-digests; the fleet front
    keeps one too. *)
type resolved

(** [reschedule_key ?memo base delta] is
    [cache_key (derived_request base delta)] — the address the daemon
    files the reschedule's answer under — computed from the derived
    request's resolved record (the edited graph on its synthetic
    geometry) without building its adjacency list. An empty delta is not
    its base's address: the base's positions are not the synthetic
    ones. [memo] memoises [base]'s generator topology as the daemon
    does. The fleet front routes a [Reschedule] by it. Raises like
    {!derived_request}. *)
val reschedule_key : ?memo:resolved Cache.t -> Codec.request -> Codec.delta -> string

(* --------------------- cache persistence ------------------------- *)

(** One cached solve: the {!solve} result for [origin], the request
    the entry answers. {!save_cache} stores [origin] so {!load_cache}
    can re-check the entry. *)
type entry = {
  stats : Codec.stats;
  schedule : Mlbs_core.Schedule.t;
  origin : Codec.request;
}

(** [entry_of ~origin (stats, schedule)] builds an entry. *)
val entry_of : origin:Codec.request -> Codec.stats * Mlbs_core.Schedule.t -> entry

(** [save_cache ~dir cache] writes the 64 hottest entries to
    [dir/cache.frames] (creating [dir]) in the wire's own frames: a
    [Hello] header carrying {!Codec.protocol_version}, then one [Put]
    per entry (version 0), least recently used first. It writes a temp file, fsyncs
    it and renames it over the old one, so a crash mid-save leaves the
    previous file whole. Returns the number written. *)
val save_cache : dir:string -> entry Cache.t -> int

(** [load_cache ?allowed_models ?memo ~dir cache] reads that file back,
    restoring the recency order. Every entry passes the replay gate
    ([allowed_models] as in {!config}, [memo] as in {!reschedule_key});
    a refused one, a [Put] whose version is not 0 included, is dropped
    and counted in [server/put_refused]. A missing file or another protocol
    version loads nothing; a truncated or garbled frame ends the read.
    Returns the number installed. *)
val load_cache :
  ?allowed_models:Mlbs_phy.Interference.t list -> ?memo:resolved Cache.t ->
  dir:string -> entry Cache.t -> int
