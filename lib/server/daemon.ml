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
module Persist = Mlbs_workload.Persist
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
  persist_limit : int;
  allowed_models : Interference.t list option;
  improve_budget : int;
}

let default_config ~socket_path =
  let c = Config.default in
  {
    socket_path = Some socket_path;
    tcp_port = None;
    jobs = c.Config.jobs;
    queue_capacity = c.Config.queue_capacity;
    cache_capacity = c.Config.cache_capacity;
    cache_dir = None;
    persist_limit = 64;
    allowed_models = None;
    improve_budget = 0;
  }

(* One cached solve. [version] counts the strictly-better Validate-clean
   upgrades the background improver installed on this content address
   (0 = the deterministic construction [solve] produces). [origin] is
   the request the entry answers — the improver needs it to rebuild the
   model; entries warmed from disk carry [None] and are never polished.
   [attempts] counts polish passes spent on this entry (it salts the
   improver's seed and caps fruitless re-polish work). *)
type entry = {
  stats : C.stats;
  schedule : Schedule.t;
  version : int;
  origin : C.request option;
  attempts : int Atomic.t;
}

let entry_of ?origin ?(version = 0) (stats, schedule) =
  { stats; schedule; version; origin; attempts = Atomic.make 0 }

(* ---------------------------- metrics ------------------------------ *)

let m_requests = Metrics.counter "server/requests"
let m_ok = Metrics.counter "server/replies_ok"
let m_rejected = Metrics.counter "server/rejected"
let m_errors = Metrics.counter "server/errors"
let m_connections = Metrics.counter "server/connections"
let m_bad_frames = Metrics.counter "server/bad_frames"
let m_peeks = Metrics.counter "server/peeks"
let m_fills = Metrics.counter "server/fills"
let m_put_refused = Metrics.counter "server/put_refused"
let h_request_us = Metrics.histogram "server/request_us"
let h_solve_us = Metrics.histogram "server/solve_us"
let m_polish_passes = Metrics.counter "search/improve/polish_passes"
let m_upgrades = Metrics.counter "search/improve/upgrades_installed"

(* EWMA of recent solve wall time, process-wide — the basis of the
   load-scaled retry hint handed to shed clients. *)
let ewma_solve_us = Atomic.make 0

let note_solve_us us =
  let rec go () =
    let cur = Atomic.get ewma_solve_us in
    let next = if cur = 0 then us else ((7 * cur) + us) / 8 in
    if not (Atomic.compare_and_set ewma_solve_us cur next) then go ()
  in
  go ()

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
  note_solve_us stats.C.solve_us;
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

(* ------------------------ cache persistence ------------------------ *)

let rec mkdir_p d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let index_file dir = Filename.concat dir "index.txt"

let save_cache ~dir ~limit cache =
  mkdir_p dir;
  let entries =
    List.filteri (fun i _ -> i < limit) (Cache.to_list_mru cache)
  in
  let oc = open_out (index_file dir) in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "mlbs-cache-index 2 %d\n" (List.length entries);
      List.iteri
        (fun i (key, e) ->
          let stem = Printf.sprintf "e%04d" i in
          Persist.save_schedule (Filename.concat dir (stem ^ ".sched")) e.schedule;
          Printf.fprintf oc "entry %s %s %d %d %d %d %d %d\n" stem key e.stats.C.elapsed
            e.stats.C.transmissions e.stats.C.n_steps e.stats.C.search_states
            e.stats.C.solve_us e.version)
        entries);
  List.length entries

let load_cache ~dir cache =
  if not (Sys.file_exists (index_file dir)) then 0
  else begin
    let ic = open_in (index_file dir) in
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | l -> go (l :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])
    in
    match lines with
    | header :: rest when String.starts_with ~prefix:"mlbs-cache-index 2 " header ->
        let parse ~stem ~key ~el ~tx ~st ~ss ~su ~ver =
          try
            let schedule = Persist.load_schedule (Filename.concat dir (stem ^ ".sched")) in
            let stats =
              {
                C.elapsed = int_of_string el;
                transmissions = int_of_string tx;
                n_steps = int_of_string st;
                search_states = int_of_string ss;
                solve_us = int_of_string su;
              }
            in
            (* Disk-warmed entries carry no originating request, so the
               improver leaves them alone; the version survives so a
               previously upgraded schedule is still served as such. *)
            Some (key, entry_of ~version:(int_of_string ver) (stats, schedule))
          with _ -> None
        in
        let parsed =
          List.filter_map
            (fun line ->
              match String.split_on_char ' ' line with
              | [ "entry"; stem; key; el; tx; st; ss; su; ver ] ->
                  parse ~stem ~key ~el ~tx ~st ~ss ~su ~ver
              | _ -> None)
            rest
        in
        (* The index lists MRU first; re-insert LRU first so the warm
           cache restores the recency order. *)
        List.iter (fun (key, e) -> Cache.add cache key e) (List.rev parsed);
        List.length parsed
    | _ -> failwith (Printf.sprintf "Daemon.load_cache: %s is not a v2 index" (index_file dir))
  end

(* ----------------------------- daemon ------------------------------ *)

type t = {
  cfg : config;
  pool : Pool.t;
  cache : entry Cache.t;
  topo : resolved Cache.t;
  disp : entry Dispatch.t;
  stop_requested : bool Atomic.t;
  mutable listeners : Acceptor.listener list;
  trace_ctr : int Atomic.t;
  mutable acceptor : Thread.t option;
  mutable improver : Thread.t option;
  mutable cleaned : bool;
}

(* Monotone install: a cache line's schedule version never decreases.
   Two concurrent writers (a solve's [on_done], the improver, a fleet
   [Put]) race through [Cache.upsert]'s mutex, and whichever carries
   the newer version wins; an equal-version improver result never
   replaces (same address + same version = same upgrade chain, and for
   version 0 the bytes are identical by determinism anyway). *)
let install t ~key (e : entry) =
  Cache.upsert t.cache key (function
    | Some old when old.version > e.version -> None
    | Some old when old.version = e.version && e.version > 0 -> None
    | _ -> Some e)

let stop t = Atomic.set t.stop_requested true
let tcp_port t = List.find_map Acceptor.port t.listeners

let fresh_trace_id t digest =
  Printf.sprintf "rq-%06d-%08Lx" (Atomic.fetch_and_add t.trace_ctr 1)
    (Int64.logand digest 0xffff_ffffL)

(* ------------------------ request handling ------------------------- *)

let reply_error msg =
  Metrics.incr m_errors;
  C.Reply_error msg

(* Serve-side model policy: a daemon started with an allow-list (the
   [mlbs serve --model] flag) refuses any other interference model
   before resolving the topology, so a shard dedicated to one backend
   never burns a solve slot on another's request. *)
let model_allowed t (model : Interference.t) =
  match t.cfg.allowed_models with
  | None -> true
  | Some l -> List.exists (Interference.equal model) l

let reject_model model =
  reply_error
    (Printf.sprintf "interference model %s is not served here" (Interference.to_string model))

(* Load-scaled backpressure: the hint is the queue's expected drain
   time — [depth + 1] slots at the EWMA solve cost spread over the
   worker pool — clamped to [5, 5000] ms. Before the first solve lands
   (cold EWMA) fall back to a flat 10 ms per queued slot. *)
let retry_hint t ~depth =
  match Atomic.get ewma_solve_us with
  | 0 -> 10 * (depth + 1)
  | per_us ->
      let ms = (depth + 1) * per_us / (max 1 t.cfg.jobs * 1000) in
      max 5 (min 5000 ms)

let reply_ok t ~digest ~cache_hit (e : entry) =
  Metrics.incr m_ok;
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
  let on_done = function Ok e -> install t ~key e | Error _ -> () in
  match Dispatch.submit t.disp ~on_done run with
  | Error `Closing -> reply_error "server is shutting down"
  | Error (`Shed depth) ->
      Metrics.incr m_rejected;
      C.Reply_rejected { retry_after_ms = retry_hint t ~depth }
  | Ok ticket -> (
      match Dispatch.await ticket with
      | Ok e -> reply_ok t ~digest ~cache_hit:false e
      | Error msg -> reply_error msg)

(* Where a frame's request lives: the request the schedule answers, its
   resolved topology, source and content address. *)
type address = { areq : C.request; ar : resolved; asource : int; akey : string }

let plain t req = (req, resolve ~memo:t.topo req)

(* The lookup every frame shares: allow-list, then [answer] (which
   resolves the request actually answered — a [Reschedule]'s derived
   request), then source, then content address. Any failure on the way
   is the frame's [Reply_error]. *)
let address t (req : C.request) ~answer =
  if not (model_allowed t req.C.model) then Error (reject_model req.C.model)
  else
    match
      let areq, ar = answer req in
      let asource = source_of areq ar in
      { areq; ar; asource; akey = key_of areq ~digest:ar.rdigest ~source:asource }
    with
    | a -> Ok a
    | exception e -> Error (reply_error (Printexc.to_string e))

(* A [Request] or [Reschedule]: a hit replies from cache, a miss is
   solved by [do_solve] on a pool worker and filed under the answered
   request's address. *)
let serve t ~name (req : C.request) ~answer =
  Metrics.incr m_requests;
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
                    entry_of ~origin:areq
                      (do_solve model (policy_of areq.C.policy) ~source:asource
                         ~start:areq.C.start))))
  in
  let dt = Obs.now_us () -. t0 in
  Metrics.observe h_request_us (int_of_float dt);
  if Obs.tracing_enabled () then
    Trace.complete ~cat:"server" ~name ~t0_us:t0 ~dur_us:dt ();
  reply

let handle_request t req = serve t ~name:"request" req ~answer:(plain t)

(* A [Reschedule] is answered as its derived request: edit the base
   graph, then serve the plain request for the edited adjacency. The
   reply is byte-identical to that request's, and both share one cache
   line; the entry's origin is the derived request, so the improver can
   polish it. *)
let handle_reschedule t base delta =
  serve t ~name:"reschedule" base ~answer:(fun base -> resolve_derived ~memo:t.topo base delta)

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

(* A [Put] (protocol v3): peer cache-fill. The content address is
   recomputed from the request itself, and the schedule must answer it:
   same node count, source and start, and a clean radio replay under the
   request's model. A peer's schedule is trusted no further than any
   other, so a wrong one is refused, never installed. *)
let handle_put t req ~version (stats : C.stats) schedule =
  let refuse msg =
    Metrics.incr m_put_refused;
    reply_error msg
  in
  match address t req ~answer:(plain t) with
  | Error reply -> reply
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
        install t ~key:akey (entry_of ~origin:areq ~version (stats, schedule));
        Metrics.incr m_fills;
        C.Put_ack
      end

(* The Stats frame carries the daemon's own counters plus the search
   core's ("search/states", bound-prune kinds, dominance prunes, the
   transposition-table hit/miss/collision/evict/grow family) so a
   client can see how the cold-miss solves behave without shell access
   to the server host. *)
let server_stats () =
  let has_prefix p name =
    String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  List.filter_map
    (fun (name, v) ->
      if has_prefix "server/" name || has_prefix "search/" name || has_prefix "phy/" name
      then
        Some
          ( name,
            match (v : Metrics.value) with
            | Metrics.Count c -> c
            | Metrics.Level l -> l
            | Metrics.Dist { total; _ } -> total )
      else None)
    (Metrics.snapshot ())

let handle_conn t fd =
  Metrics.incr m_connections;
  let rec loop () =
    match C.recv fd with
    | None -> ()
    | Some msg ->
        let continue =
          match msg with
          | C.Hello { proto; version } ->
              C.send fd
                (C.Hello_ack
                   {
                     proto = C.protocol_version;
                     version = Version.version;
                     version_match =
                       proto = C.protocol_version && version = Version.version;
                   });
              true
          | C.Request req ->
              C.send fd (handle_request t req);
              true
          | C.Reschedule { base; delta } ->
              C.send fd (handle_reschedule t base delta);
              true
          | C.Peek req ->
              C.send fd (handle_peek t req);
              true
          | C.Put { req; version; stats; schedule } ->
              C.send fd (handle_put t req ~version stats schedule);
              true
          | C.Stats_request ->
              C.send fd (C.Stats_reply (server_stats ()));
              true
          | C.Shutdown ->
              C.send fd C.Shutdown_ack;
              stop t;
              false
          | C.Hello_ack _ | C.Reply_ok _ | C.Reply_rejected _ | C.Reply_error _
          | C.Stats_reply _ | C.Shutdown_ack | C.Peek_miss | C.Put_ack ->
              C.send fd (C.Reply_error "unexpected message from client");
              true
        in
        if continue then loop ()
  in
  (try loop () with
  | C.Malformed _ ->
      Metrics.incr m_bad_frames;
      (try C.send fd (C.Reply_error "malformed frame") with _ -> ())
  | Unix.Unix_error (_, _, _) | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

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
  let rec take n = function
    | x :: tl when n > 0 -> x :: take (n - 1) tl
    | _ -> []
  in
  let cands =
    List.filter_map
      (fun (key, e) ->
        match e.origin with
        | Some req when Atomic.get e.attempts < max_polish_attempts -> Some (key, e, req)
        | _ -> None)
      (take polish_scan (Cache.to_list_mru t.cache))
  in
  match cands with
  | [] -> false
  | first :: rest ->
      let key, e, req =
        List.fold_left
          (fun ((_, be, _) as b) ((_, ce, _) as c) ->
            if Atomic.get ce.attempts < Atomic.get be.attempts then c else b)
          first rest
      in
      let attempt = Atomic.fetch_and_add e.attempts 1 in
      Metrics.incr m_polish_passes;
      let outcome =
        try
          let model = model_for req (resolve ~memo:t.topo req) in
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
          install t ~key
            {
              stats;
              schedule = plan;
              version = e.version + 1;
              origin = e.origin;
              attempts = Atomic.make (attempt + 1);
            };
          Metrics.incr m_upgrades;
          true
      | Some _ | None -> false)

(* --------------------------- lifecycle ----------------------------- *)

let start cfg =
  if cfg.socket_path = None && cfg.tcp_port = None then
    failwith "Daemon.start: no listener configured (need a socket path or TCP port)";
  (* The registry is the server's own observability surface; tracing
     stays at whatever the caller (Telemetry.with_config) selected. *)
  Obs.enable ~metrics:true ~tracing:(Obs.tracing_enabled ()) ();
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let cache = Cache.create ~metrics_prefix:"server/cache" ~capacity:cfg.cache_capacity () in
  (match cfg.cache_dir with Some dir -> ignore (load_cache ~dir cache) | None -> ());
  let pool = Pool.create ~jobs:cfg.jobs in
  let t =
    {
      cfg;
      pool;
      cache;
      topo = Cache.create ~metrics_prefix:"server/topo" ~capacity:256 ();
      disp = Dispatch.create ~pool ~capacity:cfg.queue_capacity;
      stop_requested = Atomic.make false;
      listeners = [];
      trace_ctr = Atomic.make 0;
      acceptor = None;
      improver = None;
      cleaned = false;
    }
  in
  let listeners =
    (match cfg.socket_path with Some p -> [ Acceptor.bind_unix p ] | None -> [])
    @ (match cfg.tcp_port with Some p -> [ Acceptor.bind_tcp ~port:p ] | None -> [])
  in
  t.listeners <- listeners;
  Dispatch.start t.disp;
  t.acceptor <-
    Some
      (Thread.create
         (fun () ->
           Acceptor.serve t.listeners
             ~stopped:(fun () -> Atomic.get t.stop_requested)
             ~handle:(handle_conn t))
         ());
  if cfg.improve_budget > 0 then
    t.improver <-
      Some
        (Thread.create
           (fun () ->
             (* Poll for idleness; a polish pass only starts while the
                dispatcher has neither queued nor in-flight work, and
                every pass is budget-bounded, so shutdown joins
                promptly. *)
             while not (Atomic.get t.stop_requested) do
               if Dispatch.busy t.disp then Thread.delay 0.02
               else if not (polish_once t ~budget:cfg.improve_budget) then
                 Thread.delay 0.02
             done)
           ());
  t

let cleanup t =
  if not t.cleaned then begin
    t.cleaned <- true;
    Acceptor.close_all t.listeners;
    (match t.cfg.cache_dir with
    | Some dir -> ignore (save_cache ~dir ~limit:t.cfg.persist_limit t.cache)
    | None -> ());
    Pool.shutdown t.pool
  end

let wait t =
  (* Poll rather than block in a join: the waiting thread keeps
     executing OCaml code, so a SIGINT/SIGTERM handler that calls
     [stop] gets to run here. *)
  while not (Atomic.get t.stop_requested) do
    Thread.delay 0.05
  done;
  Dispatch.stop t.disp;
  Option.iter Thread.join t.acceptor;
  Option.iter Thread.join t.improver;
  Dispatch.join t.disp;
  cleanup t

let run cfg = wait (start cfg)
