(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, runs the ablation studies, times the schedulers with
   Bechamel, and drives the service, churn, fleet, search, model and
   improver benches.

     dune exec bench/main.exe                 # everything, full sweep
     dune exec bench/main.exe -- --quick      # reduced sweep
     dune exec bench/main.exe -- fig3 table2  # selected targets
     dune exec bench/main.exe -- --jobs 4 fig3  # 4 worker domains
     dune exec bench/main.exe -- --smoke --compare BENCH_9.json  # CI gate
     dune exec bench/main.exe -- --smoke --json BENCH_9.json     # re-record it

   Targets: table2 table3 table4 fig3 fig4 fig5 fig6 fig7 reliability
   ablation service churn fleet micro search models improve
   (default: all).
   The service target drives an in-process scheduling daemon over its
   Unix socket — cold (distinct instances) then warm (cache hits). The
   churn target times warm-started repair against full re-solves and
   byte-compares every repair; fleet drives a front over 1/2/4 shards
   and kills one. The search target times the default-budget cold-solve
   kernels on fixed instances. The models target compares the
   interference backends (udg / sinr / mc:2 / mc:3) on shared
   deployments — solve ns/run plus scheduled rounds and transmissions.
   The improve target sweeps the GLS/VNS anytime improver over fixed
   G-OPT starts at increasing evaluation budgets (best of a small seed
   portfolio per point, every improved schedule re-validated by radio
   replay) plus two ns/run kernels.

   Every number a run records is one row of rows.ml's schema
   {target, name, metric, value, unit}: section wall-clock (figures
   additionally run at jobs=1 first — a parallel-speedup baseline and
   warm-up — with a byte-identity check on the rendered output), every
   Bechamel ns/run estimate, and each target's own table.

   Flags: --quick (reduced sweep), --smoke (Config.smoke plus the
   representative micro-kernel subset — the CI gate; no JSON unless
   --json is given), --jobs N (worker domains, default all cores),
   --json FILE (the rows, default BENCH_9.json; the committed file is a
   --smoke run, the CI baseline), --no-json, --compare FILE (gate this
   run's rows against a previous dump with rows.ml's rule: an ns row
   more than Rows.threshold_pct slower, or missing from a target that
   ran, exits non-zero; every other row is reported only), --trace FILE
   / --metrics FILE (record observability artifacts for the whole run;
   off by default so timed sections pay only the registry's disabled
   branch — which is exactly what the --compare gate then measures).

   A churn repair that is not byte-identical to a full re-solve, or an
   improved schedule that fails the radio replay, also exits non-zero. *)

module Config = Mlbs_workload.Config
module Figures = Mlbs_workload.Figures
module Report = Mlbs_workload.Report
module Ablation = Mlbs_workload.Ablation
module Experiment = Mlbs_workload.Experiment
module Model = Mlbs_core.Model
module Scheduler = Mlbs_core.Scheduler
module Schedule = Mlbs_core.Schedule
module Interference = Mlbs_phy.Interference
module Emodel = Mlbs_core.Emodel
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Bitset = Mlbs_util.Bitset
module Pool = Mlbs_util.Pool
module Validate = Mlbs_sim.Validate
module Improve = Mlbs_search.Improve
module Obs = Mlbs_obs.Obs
module Obs_metrics = Mlbs_obs.Metrics
module Rows = Bench_rows.Rows
module Telemetry = Mlbs_workload.Telemetry

(* Monotonic nanoseconds (CLOCK_MONOTONIC via bechamel's stubs), so
   section timings survive wall-clock adjustments mid-run. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let section title =
  let bar = String.make 72 '=' in
  Printf.printf "%s\n%s\n%s\n%!" bar title bar

let timed f =
  let t0 = now_s () in
  f ();
  let dt = now_s () -. t0 in
  Printf.printf "(%.1fs)\n\n%!" dt;
  dt

(* Every row this run records, newest first. Values keep six significant
   digits: timings are noisier than that, and the file stays readable. *)
let rows : Rows.row list ref = ref []

let emit target name metrics =
  List.iter
    (fun (metric, unit, v) ->
      let value = float_of_string (Printf.sprintf "%.6g" v) in
      rows := { Rows.target; name; metric; value; unit } :: !rows)
    metrics

(* Why this run fails, newest first: churn and improver checks, then the
   regression compare. *)
let failures : string list ref = ref []

(* Section timings also feed the registry (a no-op unless --metrics is
   on), so a telemetry-enabled bench run ships its phase profile. Every
   section is named after its target; the jobs=1 comparison run of a
   figure sweep defaults to the timed run itself for single-run
   sections, so both rows are always present. *)
let h_section_ms = Obs_metrics.histogram "bench/section_ms"

let record target ?seconds_jobs1 seconds =
  Obs_metrics.observe h_section_ms (int_of_float (seconds *. 1000.));
  emit target "section"
    [
      ("seconds", "s", seconds);
      ("seconds_jobs1", "s", Option.value seconds_jobs1 ~default:seconds);
    ]

(* ------------------------ paper tables ----------------------------- *)

let run_table n target render =
  section (Printf.sprintf "Table %s (fixture walkthrough)" n);
  record target (timed (fun () -> print_string (render ())))

(* ------------------------ paper figures ---------------------------- *)

(* The jobs=1 baseline runs before the timed configured-jobs run: it is
   both the parallel-speedup denominator and the warm-up, so the timed
   run starts with hot code, a warm shared pool, and sized scratch —
   the regime a long sweep actually operates in. Its render is kept for
   a live check of the pool's determinism guarantee. *)
let jobs1_baseline cfg ~compare_jobs1 render =
  if (not compare_jobs1) || cfg.Config.jobs <= 1 then None
  else begin
    let t0 = now_s () in
    let rendered1 = render { cfg with Config.jobs = 1 } in
    Some (now_s () -. t0, rendered1)
  end

let check_identical name cfg baseline rendered =
  match baseline with
  | Some (_, r1) when r1 <> rendered ->
      Printf.printf "WARNING: %s output differs between jobs=%d and jobs=1\n%!" name
        cfg.Config.jobs
  | _ -> ()

(* The configured-jobs render is timed twice and the faster pass kept:
   the second pass runs at steady state (hot code, sized scratch, heap
   settled by the [Gc.full_major] below), which is the regime a long
   sweep operates in and the one the recorded number represents. The
   jobs=1 baseline pass above doubles as the first-touch warm-up, and
   the rendered output (identical across passes — checked against the
   baseline) is printed outside the clock. *)
let timed_render render cfg rendered =
  let pass () =
    Gc.full_major ();
    let t0 = now_s () in
    rendered := render cfg;
    now_s () -. t0
  in
  let d1 = pass () in
  let d2 = pass () in
  let dt = Float.min d1 d2 in
  Printf.printf "(%.1fs)\n\n%!" dt;
  dt

let run_figure cfg ~compare_jobs1 name build =
  section
    (Printf.sprintf "%s (density sweep: %s seeds x %s node counts, jobs=%d)"
       (String.capitalize_ascii name)
       (string_of_int (List.length cfg.Config.seeds))
       (string_of_int (List.length cfg.Config.node_counts))
       cfg.Config.jobs);
  let render cfg = Report.render_figure (build cfg) in
  let baseline = jobs1_baseline cfg ~compare_jobs1 render in
  let rendered = ref "" in
  let dt = timed_render render cfg rendered in
  print_string !rendered;
  check_identical name cfg baseline !rendered;
  record name ?seconds_jobs1:(Option.map fst baseline) dt

(* Same shape for multi-chart sweeps (the reliability pair): render the
   concatenation, cross-check the concatenation at jobs=1. *)
let run_figure_group cfg ~compare_jobs1 name title build =
  section (Printf.sprintf "%s (jobs=%d)" title cfg.Config.jobs);
  let render cfg =
    String.concat "\n" (List.map Report.render_figure (build cfg))
  in
  let baseline = jobs1_baseline cfg ~compare_jobs1 render in
  let rendered = ref "" in
  let dt = timed_render render cfg rendered in
  print_string !rendered;
  check_identical name cfg baseline !rendered;
  record name ?seconds_jobs1:(Option.map fst baseline) dt

(* -------------------------- ablations ------------------------------ *)

let run_ablation cfg =
  section (Printf.sprintf "Ablations (DESIGN.md design choices, jobs=%d)" cfg.Config.jobs);
  record "ablation"
    (timed (fun () ->
         let small = { cfg with Config.seeds = [ 1; 2; 3 ] } in
         Mlbs_util.Tab.print (Ablation.selector_table small ~n:150);
         print_newline ();
         Mlbs_util.Tab.print (Ablation.wake_family_table small ~n:100 ~rate:10);
         print_newline ();
         Mlbs_util.Tab.print (Ablation.lookahead_table small ~n:150);
         print_newline ();
         Mlbs_util.Tab.print (Ablation.relay_set_table small ~n:150);
         print_newline ();
         Mlbs_util.Tab.print (Ablation.localized_table small ~n:150 ~rate:None);
         print_newline ();
         Mlbs_util.Tab.print (Ablation.localized_table small ~n:100 ~rate:(Some 10));
         print_newline ();
         Mlbs_util.Tab.print (Ablation.shape_table small ~n:150);
         print_newline ();
         Mlbs_util.Tab.print (Ablation.protocol_table small ~n:150);
         print_newline ();
         Mlbs_util.Tab.print (Ablation.resilience_table small ~n:150 ~kill_fraction:0.1);
         print_newline ();
         Mlbs_util.Tab.print
           (Ablation.fault_table { small with Config.crash_fraction = 0.1 } ~n:100 ~loss:0.2)))

(* ------------------------- service bench --------------------------- *)

module Sv_daemon = Mlbs_server.Daemon
module Sv_client = Mlbs_server.Client
module Sv_codec = Mlbs_server.Codec

(* One load phase of the service or fleet bench. *)
type phase = {
  pname : string;
  requests : int;
  p_seconds : float;
  rps : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  hits : int;
}

let percentile sorted q =
  if Array.length sorted = 0 then 0.0
  else
    sorted.(min
              (Array.length sorted - 1)
              (int_of_float (ceil (q *. float_of_int (Array.length sorted))) - 1))

let emit_phase target suffix p =
  emit target
    (Printf.sprintf "%s %s" p.pname suffix)
    [
      ("requests", "count", float_of_int p.requests);
      ("seconds", "s", p.p_seconds);
      ("rps", "1/s", p.rps);
      ("p50", "us", p.p50_us);
      ("p95", "us", p.p95_us);
      ("p99", "us", p.p99_us);
      ("cache_hits", "count", float_of_int p.hits);
    ]

(* [requests] requests from [concurrency] clients; returns the phase
   with the rejected and failed request counts. *)
let load_phase name ~socket ~concurrency ~requests req_of =
  let lat = Array.make requests 0.0 in
  let hits = Atomic.make 0 in
  let rejected = Atomic.make 0 in
  let errors = Atomic.make 0 in
  let worker w () =
    let c, _, _ = Sv_client.connect (Sv_client.Unix_socket socket) in
    Fun.protect ~finally:(fun () -> Sv_client.close c) @@ fun () ->
    let i = ref w in
    while !i < requests do
      let t0 = now_s () in
      (match Sv_client.request_retry ~attempts:8 c (req_of !i) with
      | Sv_client.Ok ok -> if ok.Sv_codec.cache_hit then Atomic.incr hits
      | Sv_client.Rejected _ -> Atomic.incr rejected
      | Sv_client.Error _ -> Atomic.incr errors);
      lat.(!i) <- (now_s () -. t0) *. 1e6;
      i := !i + concurrency
    done
  in
  let t0 = now_s () in
  let threads = List.init concurrency (fun w -> Thread.create (worker w) ()) in
  List.iter Thread.join threads;
  let dt = now_s () -. t0 in
  Array.sort compare lat;
  ( {
      pname = name;
      requests;
      p_seconds = dt;
      rps = float_of_int requests /. dt;
      p50_us = percentile lat 0.50;
      p95_us = percentile lat 0.95;
      p99_us = percentile lat 0.99;
      hits = Atomic.get hits;
    },
    Atomic.get rejected,
    Atomic.get errors )

(* Cold phase: every request is a distinct instance — pays deployment
   generation, source selection and the solve. Warm phase: the same
   instances again, repeatedly — served from the content-addressed
   cache. The speedup between the two is the cache's service-level
   value, gated at >= 10x in the acceptance criteria. *)
let run_service cfg ~smoke =
  section
    (Printf.sprintf "Scheduling service (daemon + wire protocol, jobs=%d)"
       cfg.Config.jobs);
  (* The daemon force-enables the metrics registry; restore the bench's
     registry state afterwards so later timed sections (micro!) still
     run with the disabled-branch cost the baseline rows were recorded
     under. *)
  let metrics0 = Obs.metrics_enabled () and tracing0 = Obs.tracing_enabled () in
  let n = List.fold_left max 50 cfg.Config.node_counts in
  let instances = if smoke then 8 else 32 in
  let concurrency = if smoke then 4 else 8 in
  let warm_requests = if smoke then 200 else 2000 in
  let socket = Filename.temp_file "mlbs-bench" ".sock" in
  let dcfg =
    {
      (Sv_daemon.default_config ~socket_path:socket) with
      Sv_daemon.jobs = cfg.Config.jobs;
      queue_capacity = 256;
      cache_capacity = 2 * instances;
    }
  in
  let req_of i =
    {
      Sv_codec.policy = Sv_codec.Gopt;
      rate = None;
      seed = 1 + (i mod instances);
      topology = Sv_codec.Gen { n; radius = Config.default.Config.radius };
      source = None;
      start = 1;
      model = Mlbs_phy.Interference.Udg;
    }
  in
  let t0 = now_s () in
  let d = Sv_daemon.start dcfg in
  let cold, warm =
    Fun.protect
      ~finally:(fun () ->
        Sv_daemon.stop d;
        Sv_daemon.wait d;
        if not metrics0 then begin
          Obs.disable ();
          if tracing0 then Obs.enable ~metrics:false ~tracing:true ()
        end)
      (fun () ->
        let phase name requests =
          let p, rejected, errors = load_phase name ~socket ~concurrency ~requests req_of in
          if rejected + errors > 0 then
            Printf.printf "  WARNING: %d failed requests in %s phase\n%!" (rejected + errors)
              name;
          p
        in
        let cold = phase "cold" instances in
        (cold, phase "warm" warm_requests))
  in
  let dt = now_s () -. t0 in
  let speedup = warm.rps /. cold.rps in
  Printf.printf "  %d instances (n=%d), %d clients over a Unix socket\n" instances n
    concurrency;
  List.iter
    (fun p ->
      Printf.printf
        "  %-5s %5d requests  %8.0f req/s  p50=%.0fus p95=%.0fus p99=%.0fus  (%d hits)\n"
        p.pname p.requests p.rps p.p50_us p.p95_us p.p99_us p.hits)
    [ cold; warm ];
  Printf.printf "  warm/cold throughput: %.1fx\n" speedup;
  Printf.printf "(%.1fs)\n\n%!" dt;
  let suffix = Printf.sprintf "(n=%d, %d instances, %d clients)" n instances concurrency in
  List.iter (emit_phase "service" suffix) [ cold; warm ];
  emit "service" "warm/cold" [ ("speedup", "x", speedup) ];
  record "service" dt

(* ------------------------- churn bench ----------------------------- *)

module Reschedule = Mlbs_core.Reschedule
module Churn = Mlbs_wsn.Churn
module Deployment = Mlbs_wsn.Deployment
module Network = Mlbs_wsn.Network
module Rng = Mlbs_prng.Rng

(* One churn level: [c_k] nodes drift per event, the
   repaired schedule is byte-compared against a full re-solve of the
   edited model every time (the re-solve doubles as the resolve
   timing). *)
type churn_level = {
  c_pct : int;
  c_k : int;
  repair_mean_us : float;
  repair_p50_us : float;
  resolve_mean_us : float;
  resolve_p50_us : float;
  speedup_mean : float;  (** mean over events of resolve/repair, paired *)
  speedup_p50 : float;
  c_mismatches : int;
}

let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (max 1 (Array.length a))

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  percentile s 0.50

(* The position jitter of one drift event: 20% of the paper deployment's
   transmission radius — local enough that most deltas touch a handful
   of neighbourhoods, large enough that every event rewires someone. *)
let drift_jitter = 2.0

let run_churn_level ~net ~model ~source ~policy ~snap ~sched ~rng ~events ~pct =
  let n = Network.n_nodes net in
  let k = max 1 (n * pct / 100) in
  let rep_us = Array.make events 0.0 in
  let res_us = Array.make events 0.0 in
  let mismatches = ref 0 in
  for e = 0 to events - 1 do
    let d = Churn.drift rng net ~k ~jitter:drift_jitter in
    let t0 = now_s () in
    let rep =
      Reschedule.reschedule model policy ?snapshot:snap ~old_schedule:sched ~added:[]
        ~removed:[] ~rewired:d.Churn.rewired ()
    in
    rep_us.(e) <- (now_s () -. t0) *. 1e6;
    let t1 = now_s () in
    let full = Scheduler.run rep.Reschedule.model policy ~source ~start:1 in
    res_us.(e) <- (now_s () -. t1) *. 1e6;
    if Sv_codec.schedule_bytes full <> Sv_codec.schedule_bytes rep.Reschedule.schedule
    then incr mismatches
  done;
  (* Speedup is paired per event — each edited instance is its own
     baseline, so a hard instance inflating both sides does not skew
     the ratio the way a ratio of means would. *)
  let ratios = Array.init events (fun e -> res_us.(e) /. rep_us.(e)) in
  {
    c_pct = pct;
    c_k = k;
    repair_mean_us = mean rep_us;
    repair_p50_us = median rep_us;
    resolve_mean_us = mean res_us;
    resolve_p50_us = median res_us;
    speedup_mean = mean ratios;
    speedup_p50 = median ratios;
    c_mismatches = !mismatches;
  }

(* A churn instance: paper-spec deployment re-anchored on synthetic
   geometry — the exact network the scheduling service resolves for the
   same adjacency, so daemon-side repairs and these in-process numbers
   describe one code path. *)
let churn_instance ~n ~seed =
  let rng = Rng.create seed in
  let net = Deployment.generate rng (Deployment.paper_spec ~n_nodes:n) in
  let model = Model.create (Network.synthetic (Network.graph net)) Model.Sync in
  let source = Deployment.select_source rng net ~min_ecc:5 ~max_ecc:8 in
  (rng, net, model, source)

let run_churn_levels ~n ~seed ~events ~pcts =
  let rng, net, model, source = churn_instance ~n ~seed in
  let policy = Scheduler.gopt in
  let sched, snap = Scheduler.run_warm model policy ~source ~start:1 () in
  List.map
    (fun pct -> run_churn_level ~net ~model ~source ~policy ~snap ~sched ~rng ~events ~pct)
    pcts

(* The service-side half of the churn story: one daemon, cold solves of
   the base and of a few sibling deployments, then a stream of
   [Reschedule] frames on the base — every one a cache miss on the
   edited digest, answered as its derived request. *)
type churn_service = {
  s_cold_us : float;
  s_repair_mean_us : float;
  s_repair_p50_us : float;
  s_errors : int;
}

let run_churn_service cfg ~n ~seed ~events ~pct =
  let metrics0 = Obs.metrics_enabled () and tracing0 = Obs.tracing_enabled () in
  let request_of ~seed net source =
    let g = Network.graph net in
    let adj =
      Array.init (Mlbs_graph.Graph.n_nodes g) (fun u ->
          Array.to_list (Mlbs_graph.Graph.neighbors g u))
    in
    {
      Sv_codec.policy = Sv_codec.Gopt;
      rate = None;
      seed;
      topology = Sv_codec.Adj adj;
      source = Some source;
      start = 1;
      model = Mlbs_phy.Interference.Udg;
    }
  in
  let rng, net, _, source = churn_instance ~n ~seed in
  let base = request_of ~seed net source in
  let socket = Filename.temp_file "mlbs-churn" ".sock" in
  let dcfg =
    {
      (Sv_daemon.default_config ~socket_path:socket) with
      Sv_daemon.jobs = cfg.Config.jobs;
      queue_capacity = 64;
      cache_capacity = 2 * events;
    }
  in
  let d = Sv_daemon.start dcfg in
  Fun.protect
    ~finally:(fun () ->
      Sv_daemon.stop d;
      Sv_daemon.wait d;
      if not metrics0 then begin
        Obs.disable ();
        if tracing0 then Obs.enable ~metrics:false ~tracing:true ()
      end)
  @@ fun () ->
  let c, _, _ = Sv_client.connect (Sv_client.Unix_socket socket) in
  Fun.protect ~finally:(fun () -> Sv_client.close c) @@ fun () ->
  let errors = ref 0 in
  let timed_request req =
    let t = now_s () in
    (match Sv_client.request_retry ~attempts:8 c req with
    | Sv_client.Ok _ -> ()
    | Sv_client.Rejected _ | Sv_client.Error _ -> incr errors);
    (now_s () -. t) *. 1e6
  in
  (* One untimed solve first: the daemon's first search pays one-time
     costs (domain-local scratch sizing, allocator warm-up) that would
     otherwise land entirely in the first cold sample. *)
  ignore
    (timed_request
       { base with Sv_codec.topology = Sv_codec.Gen { n = 120; radius = 10.0 }; source = None });
  (* Several deployments beat one: a single cold sample is too noisy. *)
  let cold_us =
    mean
      (Array.init 6 (fun i ->
           let seed = seed + (31 * i) in
           let _, net, _, source = churn_instance ~n ~seed in
           timed_request (request_of ~seed net source)))
  in
  let k = max 1 (n * pct / 100) in
  let lat = Array.make events 0.0 in
  for e = 0 to events - 1 do
    let dr = Churn.drift rng net ~k ~jitter:drift_jitter in
    let delta = { Sv_codec.d_added = []; d_removed = []; d_rewired = dr.Churn.rewired } in
    let t1 = now_s () in
    (match Sv_client.reschedule_retry ~attempts:8 c ~base ~delta with
    | Sv_client.Ok _ -> ()
    | Sv_client.Rejected _ | Sv_client.Error _ -> incr errors);
    lat.(e) <- (now_s () -. t1) *. 1e6
  done;
  {
    s_cold_us = cold_us;
    s_repair_mean_us = mean lat;
    s_repair_p50_us = median lat;
    s_errors = !errors;
  }

(* The gate pair: repair and resolve at a fixed small size, whatever
   --smoke says, so the baseline and every run share these two kernel
   names. Returns the repairs that were not byte-identical. *)
let churn_gate_kernels () =
  match run_churn_levels ~n:80 ~seed:7 ~events:6 ~pcts:[ 10 ] with
  | [ l ] ->
      emit "churn" "churn/repair (n=80, 10%)" [ ("mean", "ns", l.repair_mean_us *. 1e3) ];
      emit "churn" "churn/resolve (n=80, 10%)" [ ("mean", "ns", l.resolve_mean_us *. 1e3) ];
      l.c_mismatches
  | _ -> 0

let run_churn cfg ~smoke =
  let n = if smoke then 80 else 300 in
  let events = if smoke then 6 else 20 in
  let pcts = [ 1; 3; 10; 30 ] in
  section
    (Printf.sprintf "Churn repair (n=%d, %d events/level, G-OPT, jobs=%d)" n events
       cfg.Config.jobs);
  let t0 = now_s () in
  let levels = run_churn_levels ~n ~seed:42 ~events ~pcts in
  List.iter
    (fun l ->
      Printf.printf
        "  churn %2d%% (k=%3d): repair %8.0f us (p50 %8.0f)  resolve %8.0f us (p50 \
         %8.0f)  speedup %4.1fx (p50 %4.1fx)%s\n"
        l.c_pct l.c_k l.repair_mean_us l.repair_p50_us l.resolve_mean_us l.resolve_p50_us
        l.speedup_mean l.speedup_p50
        (if l.c_mismatches = 0 then ""
         else Printf.sprintf "  %d BYTE MISMATCHES" l.c_mismatches))
    levels;
  let svc = run_churn_service cfg ~n ~seed:42 ~events ~pct:10 in
  Printf.printf
    "  service: cold %8.0f us, repair mean %8.0f us (p50 %8.0f)%s\n" svc.s_cold_us
    svc.s_repair_mean_us svc.s_repair_p50_us
    (if svc.s_errors = 0 then "" else Printf.sprintf "  %d ERRORS" svc.s_errors);
  List.iter
    (fun l ->
      emit "churn"
        (Printf.sprintf "drift %d%% (n=%d, k=%d)" l.c_pct n l.c_k)
        [
          ("repair_mean", "us", l.repair_mean_us);
          ("repair_p50", "us", l.repair_p50_us);
          ("resolve_mean", "us", l.resolve_mean_us);
          ("resolve_p50", "us", l.resolve_p50_us);
          ("speedup_mean", "x", l.speedup_mean);
          ("speedup_p50", "x", l.speedup_p50);
          ("mismatches", "count", float_of_int l.c_mismatches);
        ])
    levels;
  emit "churn"
    (Printf.sprintf "service (n=%d, %d events)" n events)
    [
      ("cold", "us", svc.s_cold_us);
      ("repair_mean", "us", svc.s_repair_mean_us);
      ("repair_p50", "us", svc.s_repair_p50_us);
      ("errors", "count", float_of_int svc.s_errors);
    ];
  let mismatches =
    churn_gate_kernels () + List.fold_left (fun a l -> a + l.c_mismatches) 0 levels
  in
  let dt = now_s () -. t0 in
  Printf.printf "(%.1fs)\n\n%!" dt;
  record "churn" dt;
  if mismatches > 0 then
    failures :=
      Printf.sprintf "%d repaired schedules were not byte-identical to full re-solves"
        mismatches
      :: !failures

(* ------------------------- fleet bench ----------------------------- *)

module Sv_fleet = Mlbs_server.Fleet

(* A shard for the fleet bench: an external [serve --backend] process
   when the CLI binary sits next to this bench in _build (separate
   OCaml runtimes — real multi-process scaling), an in-process daemon
   otherwise (still exercises the full TCP path). *)
type shard =
  | Sh_proc of { pid : int; out : in_channel; port : int }
  | Sh_inproc of Sv_daemon.t

let cli_exe =
  lazy
    (let candidate =
       Filename.concat
         (Filename.dirname Sys.executable_name)
         (Filename.concat ".." (Filename.concat "bin" "mlbs_cli.exe"))
     in
     if Sys.file_exists candidate then Some candidate else None)

let spawn_shard () =
  match Lazy.force cli_exe with
  | Some exe ->
      let out_r, out_w = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process exe
          [| exe; "serve"; "--backend"; "--tcp"; "0"; "--jobs"; "1" |]
          Unix.stdin out_w Unix.stderr
      in
      Unix.close out_w;
      let out = Unix.in_channel_of_descr out_r in
      let prefix = "backend ready on 127.0.0.1:" in
      let rec scan attempts =
        if attempts = 0 then failwith "backend never reported ready";
        let line = input_line out in
        if
          String.length line > String.length prefix
          && String.sub line 0 (String.length prefix) = prefix
        then
          int_of_string
            (String.sub line (String.length prefix)
               (String.length line - String.length prefix))
        else scan (attempts - 1)
      in
      Sh_proc { pid; out; port = scan 10 }
  | None ->
      Sh_inproc
        (Sv_daemon.start
           {
             (Sv_daemon.default_config ~socket_path:"unused") with
             Sv_daemon.socket_path = None;
             tcp_port = Some 0;
             jobs = 1;
           })

let shard_endpoint = function
  | Sh_proc { port; _ } -> Sv_client.Tcp { host = "127.0.0.1"; port }
  | Sh_inproc d -> (
      match Sv_daemon.tcp_port d with
      | Some port -> Sv_client.Tcp { host = "127.0.0.1"; port }
      | None -> failwith "in-process shard has no TCP port")

(* SIGKILL for a process shard — the chaos scenario CI replays. *)
let kill_shard = function
  | Sh_proc { pid; out; _ } ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error (_, _, _) -> ());
      close_in_noerr out
  | Sh_inproc d ->
      Sv_daemon.stop d;
      Sv_daemon.wait d

let front_stats socket =
  let c, _, _ = Sv_client.connect (Sv_client.Unix_socket socket) in
  Fun.protect ~finally:(fun () -> Sv_client.close c) (fun () -> Sv_client.stats c)

(* Fleet metric counters are process-global and survive across shard
   counts within one bench run, so every row works on before/after
   diffs rather than absolute values. *)
let stat_diff before after k =
  let get kvs = Option.value ~default:0 (List.assoc_opt k kvs) in
  get after - get before

(* Fixed small-n rows (the gate compares p50 latencies by name, so
   sizes must not move with --smoke): shard counts 1/2/4 through one
   front, cold then warm, and a kill-one-shard degraded phase at 4. *)
let run_fleet cfg ~smoke =
  section (Printf.sprintf "Fleet (front + sharded backends, jobs=%d)" cfg.Config.jobs);
  let metrics0 = Obs.metrics_enabled () and tracing0 = Obs.tracing_enabled () in
  let n = 50 in
  let instances = 8 in
  let concurrency = 4 in
  let warm_requests = if smoke then 160 else 800 in
  let req_of i =
    {
      Sv_codec.policy = Sv_codec.Gopt;
      rate = None;
      seed = 1 + (i mod instances);
      topology = Sv_codec.Gen { n; radius = Config.default.Config.radius };
      source = None;
      start = 1;
      model = Mlbs_phy.Interference.Udg;
    }
  in
  Printf.printf "  %d instances (n=%d), %d clients, %s shards\n" instances n concurrency
    (match Lazy.force cli_exe with Some _ -> "process" | None -> "in-process");
  let t0 = now_s () in
  List.iter
    (fun shards ->
      let label = Printf.sprintf "(%d shard%s)" shards (if shards = 1 then "" else "s") in
      let members = List.init shards (fun _ -> spawn_shard ()) in
      let socket = Filename.temp_file "mlbs-fleet" ".sock" in
      let fcfg =
        {
          (Sv_fleet.default_config
             ~backends:(List.map shard_endpoint members)
             ~socket_path:socket)
          with
          Sv_fleet.health_period = 0.2;
        }
      in
      let t = Sv_fleet.start fcfg in
      Fun.protect
        ~finally:(fun () ->
          Sv_fleet.stop t;
          Sv_fleet.wait t;
          List.iter kill_shard members;
          try Sys.remove socket with Sys_error _ -> ())
        (fun () ->
          let s0 = front_stats socket in
          let cold, _, _ = load_phase "cold" ~socket ~concurrency ~requests:instances req_of in
          let warm, rejected, _ =
            load_phase "warm" ~socket ~concurrency ~requests:warm_requests req_of
          in
          let s1 = front_stats socket in
          let fills = stat_diff s0 s1 "server/fleet/fill_hits" in
          Printf.printf
            "  %d shard%s: cold %7.0f req/s   warm %7.0f req/s  p50=%.0fus p99=%.0fus  (%d \
             hits, %d rejected, %d fills)\n"
            shards
            (if shards = 1 then " " else "s")
            cold.rps warm.rps warm.p50_us warm.p99_us warm.hits rejected fills;
          List.iter (emit_phase "fleet" label) [ cold; warm ];
          emit "fleet" ("warm " ^ label)
            [ ("rejected", "count", float_of_int rejected); ("fill_hits", "count", float_of_int fills) ];
          if shards <> 2 then
            emit "fleet" ("fleet/warm p50 " ^ label) [ ("p50", "ns", warm.p50_us *. 1e3) ];
          if shards = 4 then begin
            (* Chaos: SIGKILL one shard, drive the same load straight
               through the reroute storm. *)
            kill_shard (List.hd members);
            let ph, rejected, errors =
              load_phase "degraded" ~socket ~concurrency ~requests:(warm_requests / 2) req_of
            in
            let rebalances = stat_diff s1 (front_stats socket) "server/fleet/rebalances" in
            Printf.printf
              "  kill 1/%d: %7.0f req/s  p50=%.0fus p99=%.0fus  (%d rejected, %d errors, %d \
               rebalances)\n"
              shards ph.rps ph.p50_us ph.p99_us rejected errors rebalances;
            emit_phase "fleet" label ph;
            emit "fleet" ("degraded " ^ label)
              [
                ("rejected", "count", float_of_int rejected);
                ("errors", "count", float_of_int errors);
                ("rebalances", "count", float_of_int rebalances);
              ];
            emit "fleet" ("fleet/degraded p50 " ^ label) [ ("p50", "ns", ph.p50_us *. 1e3) ]
          end))
    [ 1; 2; 4 ];
  if not metrics0 then begin
    Obs.disable ();
    if tracing0 then Obs.enable ~metrics:false ~tracing:true ()
  end;
  let dt = now_s () -. t0 in
  Printf.printf "(%.1fs)\n\n%!" dt;
  record "fleet" dt

(* ------------------------ bechamel micro --------------------------- *)

(* A ~14 ns kernel is too close to the clock's resolution and the run
   loop's own cost to time one call per run: its row times a loop of
   [conflict_calls] calls and reports ns per call. *)
let conflict_calls = 64

(* Kernels timed as a loop, by full Bechamel name, with calls per run. *)
let batched = [ ("mlbs/kernel/conflict-test new (intersects3)", conflict_calls) ]

let micro_tests cfg =
  let open Bechamel in
  let inst = Experiment.make_instance cfg ~n:150 ~seed:1 in
  let net = inst.Experiment.net in
  let n = Mlbs_wsn.Network.n_nodes net in
  let sync_model = Model.create net Model.Sync in
  let wake = Wake_schedule.create ~rate:10 ~n_nodes:n ~seed:1 () in
  let async_model = Model.create net (Model.Async wake) in
  let source = inst.Experiment.source in
  let run model policy () = ignore (Scheduler.run model policy ~source ~start:1) in
  let budget = cfg.Config.budget in
  (* Conflict-test kernel: the paper's predicate N(u) ∩ N(v) ∩ W̄ ≠ ∅
     on two adjacent relays of the n=150 instance, as the fused
     word-wise probe the model uses. *)
  let g = Mlbs_wsn.Network.graph net in
  let u = source in
  let v = (Mlbs_graph.Graph.neighbors g u).(0) in
  let nu = Mlbs_graph.Graph.neighbor_set g u in
  let nv = Mlbs_graph.Graph.neighbor_set g v in
  let w = Model.initial_w sync_model ~source in
  let ubar = Bitset.complement w in
  [
    Test.make ~name:"kernel/conflict-test new (intersects3)"
      (Staged.stage (fun () ->
           for _ = 1 to conflict_calls do
             ignore (Sys.opaque_identity (Bitset.intersects3 (Sys.opaque_identity nu) nv ubar))
           done));
    Test.make ~name:"kernel/hop lower bound (scratch BFS)"
      (Staged.stage (fun () ->
           ignore (Mlbs_core.Mcounter.hop_lower_bound sync_model ~w)));
    Test.make ~name:"fig3/26-approx" (Staged.stage (run sync_model Scheduler.Baseline));
    Test.make ~name:"fig3/G-OPT" (Staged.stage (run sync_model (Scheduler.Gopt budget)));
    Test.make ~name:"fig3/E-model" (Staged.stage (run sync_model Scheduler.Emodel));
    Test.make ~name:"fig4/17-approx" (Staged.stage (run async_model Scheduler.Baseline));
    Test.make ~name:"fig4/G-OPT" (Staged.stage (run async_model (Scheduler.Gopt budget)));
    Test.make ~name:"fig4/E-model" (Staged.stage (run async_model Scheduler.Emodel));
    Test.make ~name:"table2/trace" (Staged.stage (fun () -> ignore (Mlbs_workload.Figures.table2 ())));
    Test.make ~name:"table3/trace" (Staged.stage (fun () -> ignore (Mlbs_workload.Figures.table3 ())));
    Test.make ~name:"table4/trace" (Staged.stage (fun () -> ignore (Mlbs_workload.Figures.table4 ())));
    Test.make ~name:"extension/localized protocol"
      (Staged.stage (fun () ->
           ignore (Mlbs_core.Localized.run sync_model ~source ~start:1)));
    Test.make ~name:"extension/CDS baseline"
      (Staged.stage (fun () ->
           ignore (Mlbs_core.Baseline_cds.plan sync_model ~source ~start:1)));
    Test.make ~name:"extension/distributed protocol (beacons)"
      (Staged.stage (fun () ->
           ignore (Mlbs_proto.Broadcast_protocol.run sync_model ~source ~start:1)));
    Test.make ~name:"substrate/E-tuple construction"
      (Staged.stage (fun () -> ignore (Emodel.compute sync_model)));
    (* The daemon's cold-miss resolve before the solve: sample a
       connected n = 300 deployment and pick its source, cycling over
       cold_solve's udg_sync deployment seeds. *)
    Test.make ~name:"wsn/generate+source (n=300)"
      (let i = ref 0 in
       Staged.stage (fun () ->
           let seed = 100_001 + (!i land 15) in
           incr i;
           let net =
             Mlbs_wsn.Deployment.generate (Mlbs_prng.Rng.create seed)
               (Mlbs_wsn.Deployment.paper_spec ~n_nodes:300)
           in
           ignore
             (Mlbs_wsn.Deployment.select_source (Mlbs_prng.Rng.create seed) net
                ~min_ecc:cfg.Config.min_ecc ~max_ecc:cfg.Config.max_ecc)));
    Test.make ~name:"substrate/UDG deployment (n=150)"
      (Staged.stage (fun () ->
           ignore
             (Mlbs_wsn.Deployment.generate (Mlbs_prng.Rng.create 1)
                (Mlbs_wsn.Deployment.paper_spec ~n_nodes:150))));
  ]

(* The --smoke subset: one representative kernel per gated family, so
   a CI smoke run still gates the conflict predicate, the BFS bound,
   both G-OPT systems, the E-model and the cold-miss deployment
   resolve without paying the full 17-kernel session (which dominates
   the smoke run's wall clock). *)
let micro_smoke_names =
  [
    "kernel/conflict-test new (intersects3)";
    "kernel/hop lower bound (scratch BFS)";
    "fig3/G-OPT";
    "fig3/E-model";
    "fig4/G-OPT";
    "wsn/generate+source (n=300)";
  ]

(* One bechamel session over [tests], grouped under [group]: one ns
   row per estimate (per call for a [batched] kernel), then the
   section, all under [target]. *)
let bechamel_session ~group ~target tests =
  let dt =
    timed (fun () ->
        let open Bechamel in
        let test = Test.make_grouped ~name:group tests in
        let instances = Toolkit.Instance.[ monotonic_clock ] in
        let cfg_b = Benchmark.cfg ~quota:(Time.second 0.5) ~limit:200 () in
        let raw = Benchmark.all cfg_b instances test in
        let ols =
          Analyze.all
            (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
            Toolkit.Instance.monotonic_clock raw
        in
        let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) ols [] in
        List.iter
          (fun (name, result) ->
            match Analyze.OLS.estimates result with
            | Some [ est ] -> (
                match List.assoc_opt name batched with
                | Some calls ->
                    let est = est /. float_of_int calls in
                    emit target name [ ("ns_per_call", "ns", est) ];
                    Printf.printf "  %-44s %14.1f ns/call\n" name est
                | None ->
                    emit target name [ ("ns_per_run", "ns", est) ];
                    Printf.printf "  %-44s %14.0f ns/run\n" name est)
            | _ -> Printf.printf "  %-44s (no estimate)\n" name)
          (List.sort compare rows))
  in
  record target dt

let run_micro cfg ~smoke =
  let tests = micro_tests cfg in
  let tests =
    if not smoke then tests
    else List.filter (fun t -> List.mem (Bechamel.Test.name t) micro_smoke_names) tests
  in
  section
    (if smoke then "Bechamel micro-benchmarks (one scheduling run, n=150; --smoke subset)"
     else "Bechamel micro-benchmarks (one scheduling run, n=150)");
  bechamel_session ~group:"mlbs" ~target:"micro" tests

(* ------------------------- search bench ---------------------------- *)

(* The cold-solve kernels: the service's cold-solve path —
   Scheduler.run at the default budget — on fixed instances,
   independent of --quick/--smoke so every invocation gates against the
   committed baseline on identical work. This is the path every cache
   miss, fleet fill and churn re-solve pays. *)
let search_tests () =
  let open Bechamel in
  let inst = Experiment.make_instance Config.default ~n:150 ~seed:1 in
  let net = inst.Experiment.net in
  let n = Mlbs_wsn.Network.n_nodes net in
  let sync_model = Model.create net Model.Sync in
  let wake = Wake_schedule.create ~rate:10 ~n_nodes:n ~seed:1 () in
  let async_model = Model.create net (Model.Async wake) in
  let source = inst.Experiment.source in
  let inst3 = Experiment.make_instance Config.default ~n:300 ~seed:1 in
  let sync_model3 = Model.create inst3.Experiment.net Model.Sync in
  let source3 = inst3.Experiment.source in
  let run model policy source () = ignore (Scheduler.run model policy ~source ~start:1) in
  [
    Test.make ~name:"G-OPT cold sync (n=150)"
      (Staged.stage (run sync_model Scheduler.gopt source));
    Test.make ~name:"G-OPT cold async (n=150)"
      (Staged.stage (run async_model Scheduler.gopt source));
    Test.make ~name:"G-OPT cold sync (n=300)"
      (Staged.stage (run sync_model3 Scheduler.gopt source3));
    Test.make ~name:"E-model sync (n=150)"
      (Staged.stage (run sync_model Scheduler.Emodel source));
    Test.make ~name:"E-model async (n=150)"
      (Staged.stage (run async_model Scheduler.Emodel source));
  ]

let run_search () =
  section "Search-core kernels (default budget, cold solves)";
  bechamel_session ~group:"search" ~target:"search" (search_tests ())

(* ------------------------- model bench ----------------------------- *)

(* The interference-backend comparison: cold G-OPT solves per backend
   on shared deployments, at fixed sizes independent of --smoke/--quick
   (like the search bench) so the committed rows are comparable across
   runs. The ns/run kernels price SINR's additive
   zone checks and multi-channel's first-fit grouping against the
   protocol model; the rounds/transmissions table records what the
   models *schedule* on the same deployment — channel separation
   shortens schedules, the physical model's cross-class interference
   lengthens them. *)
let model_specs =
  Interference.
    [ ("udg", Udg); ("sinr", Sinr default_sinr);
      ("mc2", Multichannel 2); ("mc3", Multichannel 3) ]

let model_instances () =
  List.map
    (fun n ->
      let inst = Experiment.make_instance Config.default ~n ~seed:1 in
      (n, inst.Experiment.net, inst.Experiment.source))
    [ 150; 300 ]

let model_tests insts =
  let open Bechamel in
  let run phy net source () =
    let m = Model.create ~phy net Model.Sync in
    ignore (Scheduler.run m Scheduler.gopt ~source ~start:1)
  in
  List.concat_map
    (fun (label, phy) ->
      List.map
        (fun (n, net, source) ->
          Test.make
            ~name:(Printf.sprintf "G-OPT cold %s (n=%d)" label n)
            (Staged.stage (run phy net source)))
        insts)
    model_specs

let model_latencies insts =
  List.concat_map
    (fun (n, net, source) ->
      List.map
        (fun (label, phy) ->
          let m = Model.create ~phy net Model.Sync in
          let s = Scheduler.run m Scheduler.gopt ~source ~start:1 in
          (label, n, Schedule.elapsed s, Schedule.n_transmissions s))
        model_specs)
    insts

let run_models () =
  section "Interference backends (cold G-OPT per model, shared deployments)";
  let insts = model_instances () in
  let lat = model_latencies insts in
  List.iter
    (fun (label, n, rounds, tx) ->
      Printf.printf "  %-6s n=%-4d latency=%-3d rounds  transmissions=%d\n" label n
        rounds tx;
      emit "models"
        (Printf.sprintf "G-OPT %s (n=%d)" label n)
        [ ("rounds", "rounds", float_of_int rounds); ("transmissions", "count", float_of_int tx) ])
    lat;
  bechamel_session ~group:"models" ~target:"models" (model_tests insts)

(* ------------------------ improve bench ---------------------------- *)

(* The quality-vs-budget sweep: GLS/VNS local search from cold G-OPT
   starts on fixed instances (independent of --quick/--smoke, like the
   search and model benches, so the committed rows are comparable
   across runs). Each sweep point takes
   the best final latency over a small search-seed portfolio — the
   anytime engine is deterministic per seed, so the whole table is
   reproducible — and every improved schedule is re-validated by radio
   replay here, outside the engine's own acceptance check. The
   instance list deliberately includes points where G-OPT is already
   optimal-looking and the improver comes up dry. *)
let improve_budgets = [ 0; 250; 1000; 4000 ]
let improve_seed_portfolio = [ 42; 7 ]

let improve_instances =
  [ (60, 71); (100, 1); (100, 61); (150, 53); (160, 27); (180, 7); (200, 55); (230, 39) ]

(* One row: per-budget best latency, and whether every inspected
   schedule replayed clean. *)
type improve_row = {
  ir_n : int;
  ir_seed : int;
  ir_gopt : int;
  ir_rounds : int list;  (* one per improve_budgets entry *)
  ir_valid : bool;
}

let run_improve_sweep () =
  List.map
    (fun (n, seed) ->
      let inst = Experiment.make_instance Config.default ~n ~seed in
      let model = Model.create inst.Experiment.net Model.Sync in
      let source = inst.Experiment.source in
      let start = Scheduler.run model Scheduler.gopt ~source ~start:1 in
      let valid = ref true in
      let best_at budget =
        List.fold_left
          (fun best s ->
            let o = Improve.improve ~seed:s ~budget model start in
            if not (Validate.check model o.Improve.schedule).Validate.ok then
              valid := false;
            min best (Schedule.elapsed o.Improve.schedule))
          max_int improve_seed_portfolio
      in
      let rounds = List.map best_at improve_budgets in
      {
        ir_n = n;
        ir_seed = seed;
        ir_gopt = Schedule.elapsed start;
        ir_rounds = rounds;
        ir_valid = !valid;
      })
    improve_instances

(* The improver's gate kernels: one budget-bounded improvement pass over a
   G-OPT start and over a baseline start (the regime the daemon's
   background polishing runs in). *)
let improve_tests () =
  let open Bechamel in
  let inst = Experiment.make_instance Config.default ~n:150 ~seed:1 in
  let model = Model.create inst.Experiment.net Model.Sync in
  let source = inst.Experiment.source in
  let gopt = Scheduler.run model Scheduler.gopt ~source ~start:1 in
  let base = Scheduler.run model Scheduler.Baseline ~source ~start:1 in
  let run start () = ignore (Improve.improve ~seed:42 ~budget:1000 model start) in
  [
    Test.make ~name:"improve G-OPT b1000 (n=150)" (Staged.stage (run gopt));
    Test.make ~name:"improve baseline b1000 (n=150)" (Staged.stage (run base));
  ]

let run_improve () =
  section "Anytime improvement (GLS/VNS from G-OPT starts, fixed instances)";
  let rows = run_improve_sweep () in
  let header =
    String.concat "" (List.map (fun b -> Printf.sprintf " b%-5d" b) improve_budgets)
  in
  Printf.printf "  %-6s %-6s %-6s%s  replay
" "n" "seed" "gopt" header;
  List.iter
    (fun r ->
      Printf.printf "  %-6d %-6d %-6d%s  %s
" r.ir_n r.ir_seed r.ir_gopt
        (String.concat ""
           (List.map (fun x -> Printf.sprintf " %-6d" x) r.ir_rounds))
        (if r.ir_valid then "valid" else "INVALID");
      emit "improve"
        (Printf.sprintf "G-OPT start (n=%d, seed %d)" r.ir_n r.ir_seed)
        ((("gopt", "rounds", float_of_int r.ir_gopt)
         :: List.map2
              (fun b x -> (Printf.sprintf "b%d" b, "rounds", float_of_int x))
              improve_budgets r.ir_rounds)
        @ [ ("replay_valid", "bool", if r.ir_valid then 1. else 0.) ]))
    rows;
  let final r = List.nth r.ir_rounds (List.length r.ir_rounds - 1) in
  let wins = List.length (List.filter (fun r -> final r < r.ir_gopt) rows) in
  let invalid = List.length (List.filter (fun r -> not r.ir_valid) rows) in
  Printf.printf "  strictly below G-OPT at budget %d: %d/%d points
%!"
    (List.fold_left max 0 improve_budgets)
    wins (List.length rows);
  bechamel_session ~group:"improve" ~target:"improve" (improve_tests ());
  if invalid > 0 then
    failures :=
      Printf.sprintf "%d improved schedules failed the radio replay" invalid :: !failures

(* ----------------------------- main -------------------------------- *)

let known =
  [ "table2"; "table3"; "table4"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "reliability";
    "ablation"; "service"; "churn"; "fleet"; "micro"; "search"; "models"; "improve" ]

let () =
  (* [json] is [None] until --json/--no-json appears, so --smoke can
     default to no file without overriding an explicit request. *)
  let rec parse targets jobs json cmp tr mt = function
    | [] -> (List.rev targets, jobs, json, cmp, tr, mt)
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 -> parse targets (Some j) json cmp tr mt rest
        | _ -> failwith (Printf.sprintf "bad --jobs value %S" v))
    | [ "--jobs" ] -> failwith "--jobs needs a value"
    | "--json" :: v :: rest -> parse targets jobs (Some (Some v)) cmp tr mt rest
    | [ "--json" ] -> failwith "--json needs a value"
    | "--no-json" :: rest -> parse targets jobs (Some None) cmp tr mt rest
    | "--compare" :: v :: rest -> parse targets jobs json (Some v) tr mt rest
    | [ "--compare" ] -> failwith "--compare needs a value"
    | "--trace" :: v :: rest -> parse targets jobs json cmp (Some v) mt rest
    | [ "--trace" ] -> failwith "--trace needs a value"
    | "--metrics" :: v :: rest -> parse targets jobs json cmp tr (Some v) rest
    | [ "--metrics" ] -> failwith "--metrics needs a value"
    | a :: rest -> parse (a :: targets) jobs json cmp tr mt rest
  in
  let args, jobs, json_arg, cmp, trace_file, metrics_file =
    parse [] None None None None None (List.tl (Array.to_list Sys.argv))
  in
  let quick = List.mem "--quick" args in
  let smoke = List.mem "--smoke" args in
  let targets = List.filter (fun a -> a <> "--quick" && a <> "--smoke") args in
  let json =
    match json_arg with
    | Some j -> j
    | None -> if smoke then None else Some "BENCH_9.json"
  in
  let targets = if targets = [] then [ "all" ] else targets in
  (match List.filter (fun t -> not (List.mem t ("all" :: known))) targets with
  | [] -> ()
  | bad ->
      failwith
        (Printf.sprintf "unknown target(s): %s (expected: %s)" (String.concat ", " bad)
           (String.concat "|" ("all" :: known))));
  let want t = List.mem t targets || List.mem "all" targets in
  (* The baseline is read before anything runs: a line the reader
     cannot read fails the run at once. *)
  let baseline =
    Option.map
      (fun path ->
        try (path, Rows.read path)
        with Failure msg | Sys_error msg ->
          Printf.printf "FAIL: %s\n%!" msg;
          exit 1)
      cmp
  in
  let cfg =
    if smoke then Config.smoke else if quick then Config.quick else Config.default
  in
  let cfg = match jobs with Some j -> { cfg with Config.jobs = j } | None -> cfg in
  let cfg = { cfg with Config.trace_file; metrics_file } in
  let compare_jobs1 = json <> None in
  (* The whole run executes under the telemetry wrapper (a no-op
     without --trace/--metrics); the regression exit happens outside
     it, after the artifacts are on disk. *)
  let failed =
    Telemetry.with_config cfg @@ fun () ->
    (* Bring the shared pool up and pre-size every domain's search
       scratch before anything is timed; the host-core figure is
       sampled only once the pool is live, after any runtime topology
       detection the spawns trigger. *)
    let max_n = List.fold_left max 150 cfg.Config.node_counts in
    Pool.prewarm ~jobs:cfg.Config.jobs
      ~setup:(fun () -> Mlbs_core.Mcounter.prewarm ~n:max_n)
      ();
    let flag b = if b then 1. else 0. in
    emit "run" "config"
      [
        ("host_cores", "count", float_of_int (Pool.default_jobs ()));
        ("jobs", "count", float_of_int cfg.Config.jobs);
        ("quick", "bool", flag quick);
        ("smoke", "bool", flag smoke);
      ];
    let total0 = now_s () in
    if want "table2" then run_table "II" "table2" Figures.table2;
    if want "table3" then run_table "III" "table3" Figures.table3;
    if want "table4" then run_table "IV" "table4" Figures.table4;
    if want "fig3" then run_figure cfg ~compare_jobs1 "fig3" Figures.fig3;
    if want "fig4" then run_figure cfg ~compare_jobs1 "fig4" Figures.fig4;
    if want "fig5" then run_figure cfg ~compare_jobs1 "fig5" Figures.fig5;
    if want "fig6" then run_figure cfg ~compare_jobs1 "fig6" Figures.fig6;
    if want "fig7" then run_figure cfg ~compare_jobs1 "fig7" Figures.fig7;
    if want "reliability" then
      run_figure_group cfg ~compare_jobs1 "reliability"
        (Printf.sprintf "Reliability (loss sweep: %d rates x %d seeds)"
           (List.length cfg.Config.loss_rates)
           (List.length cfg.Config.seeds))
        Figures.fig_reliability;
    if want "ablation" then run_ablation cfg;
    if want "service" then run_service cfg ~smoke;
    if want "churn" then run_churn cfg ~smoke;
    if want "fleet" then run_fleet cfg ~smoke;
    if want "search" then run_search ();
    if want "models" then run_models ();
    if want "improve" then run_improve ();
    if want "micro" then run_micro cfg ~smoke;
    let total = now_s () -. total0 in
    Printf.printf "total: %.1fs (jobs=%d)\n" total cfg.Config.jobs;
    emit "run" "total" [ ("seconds", "s", total) ];
    let rows = List.rev !rows in
    Option.iter
      (fun path ->
        Rows.write path rows;
        Printf.printf "wrote %s\n" path)
      json;
    Option.iter
      (fun (path, baseline) ->
        section
          (Printf.sprintf "Regression check vs %s (threshold %d%%)" path Rows.threshold_pct);
        let checks = Rows.compare ~ran:(List.filter want known) ~baseline rows in
        Rows.report checks;
        if Rows.failed checks then
          failures := Printf.sprintf "regression check vs %s" path :: !failures)
      baseline;
    List.iter (Printf.printf "FAIL: %s\n%!") (List.rev !failures);
    !failures <> []
  in
  if failed then exit 1
