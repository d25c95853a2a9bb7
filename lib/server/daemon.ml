module C = Codec
module Pool = Mlbs_util.Pool
module Rng = Mlbs_prng.Rng
module Graph = Mlbs_graph.Graph
module Network = Mlbs_wsn.Network
module Deployment = Mlbs_wsn.Deployment
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Interference = Mlbs_phy.Interference
module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Scheduler = Mlbs_core.Scheduler
module Validate = Mlbs_sim.Validate
module Config = Mlbs_workload.Config
module Improve = Mlbs_search.Improve
module Obs = Mlbs_obs.Obs
module Metrics = Mlbs_obs.Metrics
module Trace = Mlbs_obs.Trace

type config = {
  socket_path : string option;
  tcp_port : int option;
  jobs : int;
  queue_capacity : int;
  cache_capacity : int;
  cache_dir : string option;
  allowed_models : Interference.t list option;
  improve_budget : int;
}

let default_config ~socket_path =
  {
    socket_path = Some socket_path;
    tcp_port = None;
    jobs = Config.default.Config.jobs;
    queue_capacity = 64;
    cache_capacity = 512;
    cache_dir = None;
    allowed_models = None;
    improve_budget = 0;
  }

(* One cached solve. [version] counts the strictly-better Validate-clean
   upgrades the background improver installed on this content address
   (0 = the deterministic construction [solve] produces). [origin] is
   the request the entry answers — the improver rebuilds the model from
   it, and the disk file stores it so a restart re-checks the entry.
   [attempts] counts polish passes spent on this entry (it salts the
   improver's seed and caps fruitless re-polish work). *)
type entry = {
  stats : C.stats;
  schedule : Schedule.t;
  version : int;
  origin : C.request;
  attempts : int Atomic.t;
}

let entry_of ~origin ?(version = 0) (stats, schedule) =
  { stats; schedule; version; origin; attempts = Atomic.make 0 }

(* ---------------------------- metrics ------------------------------ *)

let family = Acceptor.family "server"
let m_peeks = Metrics.counter "server/peeks"
let m_fills = Metrics.counter "server/fills"
let m_put_refused = Metrics.counter "server/put_refused"
let h_solve_us = Metrics.histogram "server/solve_us"
let m_polish_passes = Metrics.counter "search/improve/polish_passes"
let m_upgrades = Metrics.counter "search/improve/upgrades_installed"

(* ------------------------ request resolution ----------------------- *)

(* The paper's source-eccentricity window, as [mlbs schedule] uses. *)
let min_ecc = Config.default.Config.min_ecc
let max_ecc = Config.default.Config.max_ecc

type resolved = { rnet : Network.t; rdigest : int64; rsource : int }

(* Explicit adjacencies carry no geometry; synthesize a unit grid of
   distinct positions (quadrants and hull then derive from the fake
   geometry, deterministically — the schedule's conflict-freedom only
   depends on the graph). *)
let network_of_adjacency adj = Network.synthetic (Graph.of_adjacency adj)

let build_topology (req : C.request) =
  match req.C.topology with
  | C.Gen { n; radius } ->
      let spec =
        {
          Deployment.n_nodes = n;
          width = Config.default.Config.width;
          height = Config.default.Config.height;
          radius;
          shape = Deployment.Uniform;
        }
      in
      Deployment.generate (Rng.create req.C.seed) spec
  | C.Adj adj -> network_of_adjacency adj

let resolve_fresh (req : C.request) =
  let net = build_topology req in
  let rdigest = Graph.digest (Network.graph net) in
  let rsource =
    match req.C.topology with
    | C.Gen _ -> Deployment.select_source (Rng.create req.C.seed) net ~min_ecc ~max_ecc
    | C.Adj _ -> 0
  in
  { rnet = net; rdigest; rsource }

(* Generator requests are memoised on (n, radius, seed) so a warm
   request never re-samples the deployment or re-runs the source
   eccentricity scan; explicit adjacencies were shipped in the frame
   and are rebuilt in O(n + m). *)
let resolve ?memo (req : C.request) =
  match (req.C.topology, memo) with
  | C.Gen { n; radius }, Some memo -> (
      let mkey = Printf.sprintf "g:%d:%h:%d" n radius req.C.seed in
      match Cache.find memo mkey with
      | Some r -> r
      | None ->
          let r = resolve_fresh req in
          Cache.add memo mkey r;
          r)
  | _ -> resolve_fresh req

let source_of (req : C.request) r =
  match req.C.source with
  | None -> r.rsource
  | Some s ->
      if s < 0 || s >= Network.n_nodes r.rnet then
        failwith (Printf.sprintf "source %d out of range [0,%d)" s (Network.n_nodes r.rnet));
      s

let system_of (req : C.request) net =
  match req.C.rate with
  | None -> Model.Sync
  | Some rate ->
      Model.Async (Wake_schedule.create ~rate ~n_nodes:(Network.n_nodes net) ~seed:req.C.seed ())

let policy_of = function
  | C.Baseline -> Scheduler.Baseline
  | C.Emodel -> Scheduler.Emodel
  | C.Gopt -> Scheduler.gopt
  | C.Opt -> Scheduler.opt

let policy_tag = function C.Baseline -> 0 | C.Emodel -> 1 | C.Gopt -> 2 | C.Opt -> 3

(* The content address: everything the served schedule is a function
   of. The wake-schedule seed participates only under a duty cycle, so
   sync requests for the same graph content hit regardless of seed. The
   interference model id participates always — a SINR request must
   never be answered from a UDG cache line. *)
let key_of (req : C.request) ~digest ~source =
  Printf.sprintf "%016Lx:p%d:r%d:w%d:s%d:t%d:m%s" digest (policy_tag req.C.policy)
    (match req.C.rate with None -> -1 | Some r -> r)
    (match req.C.rate with None -> 0 | Some _ -> req.C.seed)
    source req.C.start
    (Interference.to_string req.C.model)

let cache_key req =
  let r = resolve req in
  key_of req ~digest:r.rdigest ~source:(source_of req r)

let model_for (req : C.request) r = Model.create ~phy:req.C.model r.rnet (system_of req r.rnet)

(* The one solve path: [solve] below and every dispatched miss, a
   [Reschedule] included, run this, so served bytes equal the
   reference by construction. *)
let do_solve model policy ~source ~start =
  let s0 = Metrics.counter_value "search/states" in
  let t0 = Obs.now_us () in
  let plan = Scheduler.run model policy ~source ~start in
  let dt = Obs.now_us () -. t0 in
  let stats =
    {
      C.elapsed = Schedule.elapsed plan;
      transmissions = Schedule.n_transmissions plan;
      n_steps = List.length (Schedule.steps plan);
      search_states = max 0 (Metrics.counter_value "search/states" - s0);
      solve_us = int_of_float dt;
    }
  in
  Metrics.observe h_solve_us stats.C.solve_us;
  (stats, plan)

let solve req =
  let r = resolve req in
  do_solve (model_for req r) (policy_of req.C.policy) ~source:(source_of req r)
    ~start:req.C.start

let model_of req = model_for req (resolve req)

(* The edited graph of a [Reschedule] and the base's resolved source. *)
let derived_graph ?memo (base : C.request) (delta : C.delta) =
  let r = resolve ?memo base in
  ( Graph.edit (Network.graph r.rnet) ~add:delta.C.d_added ~remove:delta.C.d_removed
      ~rewire:delta.C.d_rewired,
    source_of base r )

(* A [Reschedule] is its derived request: the plain request for the
   adjacency of [Graph.edit] applied to [base]'s resolved graph, with
   the resolved source pinned. Returns that request together with its
   resolved record — the synthetic geometry [resolve] would build for
   the adjacency, the edited digest and the pinned source — so the
   daemon can answer it without rebuilding the graph from the
   adjacency. *)
let resolve_derived ?memo base delta =
  let g', source = derived_graph ?memo base delta in
  let adj = Array.init (Graph.n_nodes g') (fun u -> Array.to_list (Graph.neighbors g' u)) in
  ( { base with C.topology = C.Adj adj; source = Some source },
    { rnet = Network.synthetic g'; rdigest = Graph.digest g'; rsource = source } )

let derived_request base delta = fst (resolve_derived base delta)

(* [key_of] reads neither the topology nor the requested source, the
   two fields the derived request replaces, so the base stands in. *)
let reschedule_key ?memo base delta =
  let g', source = derived_graph ?memo base delta in
  key_of base ~digest:(Graph.digest g') ~source

(* --------------------------- the cache gate ------------------------ *)

(* Monotone install: a cache line's schedule version never decreases.
   Two concurrent writers (a solve's [on_done], the improver, a fleet
   [Put]) race through [Cache.upsert]'s mutex, and whichever carries
   the newer version wins; an equal-version improver result never
   replaces (same address + same version = same upgrade chain, and for
   version 0 the bytes are identical by determinism anyway). *)
let install cache ~key (e : entry) =
  Cache.upsert cache key (function
    | Some old when old.version > e.version -> None
    | Some old when old.version = e.version && e.version > 0 -> None
    | _ -> Some e)

(* Serve-side model policy: a daemon started with an allow-list (the
   [mlbs serve --model] flag) refuses any other interference model
   before resolving the topology, so a shard dedicated to one backend
   never burns a solve slot on another's request. *)
let model_allowed allowed (model : Interference.t) =
  match allowed with
  | None -> true
  | Some l -> List.exists (Interference.equal model) l

(* Where a frame's request lives: the request the schedule answers, its
   resolved topology, source and content address. *)
type address = { areq : C.request; ar : resolved; asource : int; akey : string }

(* The lookup every frame shares: allow-list, then [answer] (which
   resolves the request actually answered — a [Reschedule]'s derived
   request), then source, then content address. *)
let locate ~allowed (req : C.request) ~answer =
  if not (model_allowed allowed req.C.model) then
    Error
      (Printf.sprintf "interference model %s is not served here"
         (Interference.to_string req.C.model))
  else
    match
      let areq, ar = answer req in
      let asource = source_of areq ar in
      { areq; ar; asource; akey = key_of areq ~digest:ar.rdigest ~source:asource }
    with
    | a -> Ok a
    | exception e -> Error (Printexc.to_string e)

(* The one gate for schedules this daemon did not solve itself: a peer
   [Put] and every entry read back from disk. The content address is
   recomputed from the request, and the schedule must answer it: same
   node count, source and start, and a clean radio replay under the
   request's model. Neither a peer nor a file is trusted further than
   that, so a wrong schedule is refused (counted in [server/put_refused])
   and never installed. *)
let admit ~allowed ?memo cache (req : C.request) ~version stats schedule =
  let refuse msg =
    Metrics.incr m_put_refused;
    Error msg
  in
  match locate ~allowed req ~answer:(fun req -> (req, resolve ?memo req)) with
  | Error msg -> refuse msg
  | Ok { areq; ar; asource; akey } ->
      if
        Schedule.n_nodes schedule <> Network.n_nodes ar.rnet
        || Schedule.source schedule <> asource
        || Schedule.start schedule <> areq.C.start
      then refuse "put: schedule does not match the request topology"
      else if
        not (try (Validate.check (model_for areq ar) schedule).Validate.ok with _ -> false)
      then refuse "put: schedule does not replay clean under the request's model"
      else begin
        install cache ~key:akey (entry_of ~origin:areq ~version (stats, schedule));
        Ok ()
      end

(* ------------------------ cache persistence ------------------------ *)

(* The disk format is the wire's: a [Hello] header, then one [Put] per
   entry, LRU first, written through a fsynced temp file and a rename. *)

let persist_limit = 64

let rec mkdir_p d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let cache_file dir = Filename.concat dir "cache.frames"

let save_cache ~dir cache =
  mkdir_p dir;
  let entries = List.filteri (fun i _ -> i < persist_limit) (Cache.to_list_mru cache) in
  let tmp = cache_file dir ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      C.send fd (C.Hello { proto = C.protocol_version; version = Version.version });
      List.iter
        (fun (_, e) ->
          C.send fd
            (C.Put { req = e.origin; version = e.version; stats = e.stats; schedule = e.schedule }))
        (List.rev entries);
      Unix.fsync fd);
  Unix.rename tmp (cache_file dir);
  List.length entries

(* Every [Put] passes [admit]. The read stops at the first frame that
   is not a [Put] — a truncated tail keeps the entries before it. *)
let load_cache ?allowed_models ?memo ~dir cache =
  match Unix.openfile (cache_file dir) [ Unix.O_RDONLY; O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let next () = try C.recv fd with C.Malformed _ -> None in
          let rec go n =
            match next () with
            | Some (C.Put { req; version; stats; schedule }) -> (
                match admit ~allowed:allowed_models ?memo cache req ~version stats schedule with
                | Ok () -> go (n + 1)
                | Error _ -> go n)
            | _ -> n
          in
          match next () with
          | Some (C.Hello { proto; _ }) when proto = C.protocol_version -> go 0
          | _ -> 0)

(* ----------------------------- daemon ------------------------------ *)

type t = {
  cfg : config;
  pool : Pool.t;
  cache : entry Cache.t;
  topo : resolved Cache.t;
  disp : entry Dispatch.t;
  shell : Acceptor.t;
  ewma_solve_us : int Atomic.t;  (* recent solve wall time: the retry hint's basis *)
  trace_ctr : int Atomic.t;
  mutable improver : Thread.t option;
  mutable cleaned : bool;
}

let stop t = Acceptor.stop t.shell
let tcp_port t = Acceptor.tcp_port t.shell

let fresh_trace_id t digest =
  Printf.sprintf "rq-%06d-%08Lx" (Atomic.fetch_and_add t.trace_ctr 1)
    (Int64.logand digest 0xffff_ffffL)

(* ------------------------ request handling ------------------------- *)

let reply_error msg =
  Metrics.incr family.errors;
  C.Reply_error msg

(* Load-scaled backpressure: the hint is the queue's expected drain
   time — [depth + 1] slots at the EWMA solve cost spread over the
   worker pool — clamped to [5, 5000] ms. Before the first solve lands
   (cold EWMA) fall back to a flat 10 ms per queued slot. *)
let retry_hint t ~depth =
  match Atomic.get t.ewma_solve_us with
  | 0 -> 10 * (depth + 1)
  | per_us ->
      let ms = (depth + 1) * per_us / (max 1 t.cfg.jobs * 1000) in
      max 5 (min 5000 ms)

let reply_ok t ~digest ~cache_hit (e : entry) =
  Metrics.incr family.replies_ok;
  C.Reply_ok
    {
      trace_id = fresh_trace_id t digest;
      cache_hit;
      version = e.version;
      stats = e.stats;
      schedule = e.schedule;
    }

(* Admit the solve closure and block the connection thread until a pool
   worker finishes it (or it is shed at the door). The dispatcher's
   [on_done] publishes the entry under [key] even if this connection
   dies before waking. *)
let await t ~key ~digest run =
  let on_done = function Ok e -> install t.cache ~key e | Error _ -> () in
  match Dispatch.submit t.disp ~on_done run with
  | Error `Closing -> reply_error "server is shutting down"
  | Error (`Shed depth) ->
      Metrics.incr family.rejected;
      C.Reply_rejected { retry_after_ms = retry_hint t ~depth }
  | Ok ticket -> (
      match Dispatch.await ticket with
      | Ok e -> reply_ok t ~digest ~cache_hit:false e
      | Error msg -> reply_error msg)

let plain t req = (req, resolve ~memo:t.topo req)

(* Any failure on the way to a frame's address is its [Reply_error]. *)
let address t req ~answer =
  Result.map_error reply_error (locate ~allowed:t.cfg.allowed_models req ~answer)

(* A [Request] or [Reschedule]: a hit replies from cache, a miss is
   solved by [do_solve] on a pool worker and filed under the answered
   request's address. *)
let serve t ~name (req : C.request) ~answer =
  Metrics.incr family.requests;
  let t0 = Obs.now_us () in
  let reply =
    match address t req ~answer with
    | Error reply -> reply
    | Ok { areq; ar; asource; akey } -> (
        match Cache.find t.cache akey with
        | Some e -> reply_ok t ~digest:ar.rdigest ~cache_hit:true e
        | None -> (
            match model_for areq ar with
            | exception e -> reply_error (Printexc.to_string e)
            | model ->
                await t ~key:akey ~digest:ar.rdigest (fun () ->
                    let stats, plan =
                      do_solve model (policy_of areq.C.policy) ~source:asource ~start:areq.C.start
                    in
                    Acceptor.note_ewma t.ewma_solve_us stats.C.solve_us;
                    entry_of ~origin:areq (stats, plan))))
  in
  let dt = Obs.now_us () -. t0 in
  Metrics.observe family.request_us (int_of_float dt);
  if Obs.tracing_enabled () then
    Trace.complete ~cat:"server" ~name ~t0_us:t0 ~dur_us:dt ();
  reply

(* A [Peek] (protocol v3): cache-only probe — a hit is a normal
   [Reply_ok] with [cache_hit = true]; a miss answers [Peek_miss] and
   never solves. The fleet front tier peeks shards before committing a
   solve, so this path must stay allocation-light and queue-free. *)
let handle_peek t req =
  Metrics.incr m_peeks;
  match address t req ~answer:(plain t) with
  | Error reply -> reply
  | Ok { ar; akey; _ } -> (
      match Cache.find t.cache akey with
      | Some e -> reply_ok t ~digest:ar.rdigest ~cache_hit:true e
      | None -> C.Peek_miss)

(* A [Put] (protocol v3): peer cache-fill through [admit]. *)
let handle_put t req ~version stats schedule =
  match admit ~allowed:t.cfg.allowed_models ~memo:t.topo t.cache req ~version stats schedule with
  | Ok () ->
      Metrics.incr m_fills;
      C.Put_ack
  | Error msg -> reply_error msg

(* The Stats frame carries the daemon's own counters plus the search
   core's ("search/states", bound-prune kinds, dominance prunes, the
   transposition-table hit/miss/collision/grow family) and the phy
   layer's, so a client can see how the cold-miss solves behave without
   shell access to the server host. *)
let server_stats () =
  Acceptor.stats (fun name ->
      List.exists (fun prefix -> String.starts_with ~prefix name) [ "server/"; "search/"; "phy/" ])

(* Every frame but the shell's [Hello] and [Shutdown]. *)
let handle t payload =
  C.encode
    (match C.decode payload with
    | C.Request req -> serve t ~name:"request" req ~answer:(plain t)
    | C.Reschedule { base; delta } ->
        (* Answered as its derived request: edit the base graph, then
           serve the plain request for the edited adjacency. The reply
           is byte-identical to that request's, and both share one cache
           line; the entry's origin is the derived request, so the
           improver can polish it. *)
        serve t ~name:"reschedule" base ~answer:(fun base ->
            resolve_derived ~memo:t.topo base delta)
    | C.Peek req -> handle_peek t req
    | C.Put { req; version; stats; schedule } -> handle_put t req ~version stats schedule
    | C.Stats_request -> C.Stats_reply (server_stats ())
    | C.Hello _ | C.Shutdown | C.Hello_ack _ | C.Reply_ok _ | C.Reply_rejected _
    | C.Reply_error _ | C.Stats_reply _ | C.Shutdown_ack | C.Peek_miss | C.Put_ack ->
        reply_error "unexpected message from client")

(* ----------------------- background polishing ---------------------- *)

(* The improver runs in otherwise-idle dispatcher cycles. One pass
   picks a polish candidate from the hot (MRU) end of the cache —
   preferring the entry with the fewest prior attempts, ties broken
   towards most recently used — rebuilds its model from the stored
   origin request, runs a budget-bounded GLS/VNS pass, and installs a
   strictly-better Validate-clean result as version+1. The seed is a
   deterministic function of the content address and the attempt
   number, so a pass over a given entry is reproducible while
   successive passes still explore different trajectories. *)

let max_polish_attempts = 16
let polish_scan = 8

let polish_once t ~budget =
  let cands =
    List.filteri
      (fun i (_, e) -> i < polish_scan && Atomic.get e.attempts < max_polish_attempts)
      (Cache.to_list_mru t.cache)
  in
  match cands with
  | [] -> false
  | first :: rest ->
      let key, e =
        List.fold_left
          (fun ((_, be) as b) ((_, ce) as c) ->
            if Atomic.get ce.attempts < Atomic.get be.attempts then c else b)
          first rest
      in
      let attempt = Atomic.fetch_and_add e.attempts 1 in
      Metrics.incr m_polish_passes;
      let outcome =
        try
          let model = model_for e.origin (resolve ~memo:t.topo e.origin) in
          let seed = (Hashtbl.hash key * 131) + attempt in
          Some (Improve.improve ~seed ~budget model e.schedule)
        with _ -> None
      in
      (match outcome with
      | Some o when o.Improve.improved ->
          let plan = o.Improve.schedule in
          let stats =
            {
              e.stats with
              C.elapsed = Schedule.elapsed plan;
              transmissions = Schedule.n_transmissions plan;
              n_steps = List.length (Schedule.steps plan);
            }
          in
          install t.cache ~key
            {
              e with
              stats;
              schedule = plan;
              version = e.version + 1;
              attempts = Atomic.make (attempt + 1);
            };
          Metrics.incr m_upgrades;
          true
      | Some _ | None -> false)

(* --------------------------- lifecycle ----------------------------- *)

let start cfg =
  let shell = Acceptor.bind ~socket_path:cfg.socket_path ~tcp_port:cfg.tcp_port family in
  let cache = Cache.create ~metrics_prefix:"server/cache" ~capacity:cfg.cache_capacity () in
  let topo = Cache.create ~metrics_prefix:"server/topo" ~capacity:256 () in
  (match cfg.cache_dir with
  | Some dir -> (
      try ignore (load_cache ?allowed_models:cfg.allowed_models ~memo:topo ~dir cache)
      with e ->
        Acceptor.stop shell;
        Acceptor.wait shell;
        raise e)
  | None -> ());
  let pool = Pool.create ~jobs:cfg.jobs in
  let t =
    {
      cfg;
      pool;
      cache;
      topo;
      disp = Dispatch.create ~pool ~capacity:cfg.queue_capacity;
      shell;
      ewma_solve_us = Atomic.make 0;
      trace_ctr = Atomic.make 0;
      improver = None;
      cleaned = false;
    }
  in
  Dispatch.start t.disp;
  Acceptor.serve shell (handle t);
  if cfg.improve_budget > 0 then
    t.improver <-
      Some
        (Thread.create
           (fun () ->
             (* Poll for idleness; a polish pass only starts while the
                dispatcher has neither queued nor in-flight work, and
                every pass is budget-bounded, so shutdown joins
                promptly. *)
             while not (Acceptor.stopping shell) do
               if Dispatch.busy t.disp then Thread.delay 0.02
               else if not (polish_once t ~budget:cfg.improve_budget) then
                 Thread.delay 0.02
             done)
           ());
  t

(* Once stopped: drain the queue, join the threads, persist the hot
   cache entries and release the pool. *)
let wait t =
  Acceptor.wait t.shell;
  if not t.cleaned then begin
    t.cleaned <- true;
    Dispatch.stop t.disp;
    Option.iter Thread.join t.improver;
    Dispatch.join t.disp;
    (match t.cfg.cache_dir with
    | Some dir -> ignore (save_cache ~dir t.cache)
    | None -> ());
    Pool.shutdown t.pool
  end

let run cfg = wait (start cfg)
