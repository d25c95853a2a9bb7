(* Kernel timer for the library: times the schedulers with Bechamel
   and drives the churn, search, model and improver benches. The
   paper's tables, figures and ablations are rendered by `mlbs trace`
   and `mlbs experiment`, not here; the scheduling service (daemon,
   fleet, wire protocol) is measured end to end by perfbench's
   cold_solve and hot_fleet workloads.

     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe -- churn search  # selected targets
     dune exec bench/main.exe -- --smoke --compare BENCH_9.json  # CI gate
     dune exec bench/main.exe -- --smoke --json BENCH_9.json     # re-record it

   Targets: churn micro search models improve (default: all).
   The churn target times warm-started repair against full re-solves
   across drift levels and byte-compares every repair. The search
   target times the default-budget cold-solve kernels on fixed
   instances. The models target compares the
   interference backends (udg / sinr / mc:2 / mc:3) on shared
   deployments — solve ns/run plus scheduled rounds and transmissions —
   and, without --smoke, prints the served SINR solve's tail at n = 300
   over seeds 1–20 (report-only rows).
   The improve target sweeps the GLS/VNS anytime improver over fixed
   G-OPT starts at increasing evaluation budgets (best of a small seed
   portfolio per point, every improved schedule re-validated by radio
   replay) plus two ns/run kernels.

   Every number a run records is one row of rows.ml's schema
   {target, name, metric, value, unit}: section wall-clock, every
   Bechamel ns/run estimate, and each target's own table.

   Flags: --smoke (Config.smoke plus the representative micro-kernel
   subset — the CI gate; no JSON unless --json is given),
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
module Experiment = Mlbs_workload.Experiment
module Model = Mlbs_core.Model
module Scheduler = Mlbs_core.Scheduler
module Schedule = Mlbs_core.Schedule
module Interference = Mlbs_phy.Interference
module Emodel = Mlbs_core.Emodel
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Bitset = Mlbs_util.Bitset
module Validate = Mlbs_sim.Validate
module Improve = Mlbs_search.Improve
module Obs_metrics = Mlbs_obs.Metrics
module Rows = Bench_rows.Rows
module Export = Mlbs_obs.Export

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
   section is named after its target. *)
let h_section_ms = Obs_metrics.histogram "bench/section_ms"

let record target seconds =
  Obs_metrics.observe h_section_ms (int_of_float (seconds *. 1000.));
  emit target "section" [ ("seconds", "s", seconds) ]

(* ------------------------- churn bench ----------------------------- *)

module Reschedule = Mlbs_core.Reschedule
module Churn = Mlbs_wsn.Churn
module Deployment = Mlbs_wsn.Deployment
module Network = Mlbs_wsn.Network
module Rng = Mlbs_prng.Rng
module Codec = Mlbs_server.Codec
module Daemon = Mlbs_server.Daemon
module Obs = Mlbs_obs.Obs

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

let percentile sorted q =
  if Array.length sorted = 0 then 0.0
  else
    sorted.(min
              (Array.length sorted - 1)
              (int_of_float (ceil (q *. float_of_int (Array.length sorted))) - 1))

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
    if Codec.schedule_bytes full <> Codec.schedule_bytes rep.Reschedule.schedule
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
   same adjacency. *)
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

let run_churn ~smoke =
  let n = if smoke then 80 else 300 in
  let events = if smoke then 6 else 20 in
  let pcts = [ 1; 3; 10; 30 ] in
  section (Printf.sprintf "Churn repair (n=%d, %d events/level, G-OPT)" n events);
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
           ignore (Mlbs_proto.Localized.run sync_model ~source ~start:1)));
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
   independent of --smoke so every invocation gates against the
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
   on shared deployments, at fixed sizes independent of --smoke
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

(* The SINR tail: the served G-OPT solve (deployment, source pick and
   search, as `mlbs schedule --model sinr -n 300 -p gopt --seed S` runs
   it) over seeds 1–20, whose slowest seeds take seconds. Wall-clock
   seconds and search states per seed, then the max, p90 (nearest
   rank) and median. The registry is switched on for the table only —
   [search_states] is a counter delta — so these rows are report-only
   and are skipped under --smoke. *)
let tail_seeds = List.init 20 (fun i -> i + 1)

let run_sinr_tail () =
  let metrics_on = Obs.metrics_enabled () in
  if not metrics_on then Obs.enable ~tracing:false ();
  let runs =
    Fun.protect
      ~finally:(fun () -> if not metrics_on then Obs.disable ~tracing:false ())
      (fun () ->
        List.map
          (fun seed ->
            let req =
              {
                Codec.policy = Codec.Gopt;
                rate = None;
                seed;
                topology = Codec.Gen { n = 300; radius = Config.default.Config.radius };
                source = None;
                start = 1;
                model = Interference.Sinr Interference.default_sinr;
              }
            in
            let t0 = now_s () in
            let stats, _ = Daemon.solve req in
            (seed, now_s () -. t0, stats.Codec.search_states))
          tail_seeds)
  in
  Printf.printf "  SINR tail: G-OPT n=300, seeds 1-20 (registry on)\n  %-6s %-9s %s\n" "seed"
    "seconds" "states";
  List.iter
    (fun (seed, dt, states) ->
      Printf.printf "  %-6d %-9.3f %d\n" seed dt states;
      emit "models"
        (Printf.sprintf "G-OPT sinr tail (n=300, seed %d)" seed)
        [ ("seconds", "s", dt); ("states", "count", float_of_int states) ])
    runs;
  let times = List.map (fun (_, dt, _) -> dt) runs in
  let sorted = Array.of_list (List.sort Float.compare times) in
  let k = Array.length sorted in
  let p90 = sorted.(((9 * k) + 9) / 10 - 1) and worst = sorted.(k - 1) in
  let median = Mlbs_util.Stats.median times in
  let states = List.fold_left (fun a (_, _, st) -> a + st) 0 runs in
  Printf.printf "  max %.3f s  p90 %.3f s  median %.3f s  states %d\n%!" worst p90 median states;
  emit "models" "G-OPT sinr tail (n=300, seeds 1-20)"
    [
      ("max", "s", worst); ("p90", "s", p90); ("median", "s", median);
      ("states", "count", float_of_int states);
    ]

let run_models ~smoke =
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
  bechamel_session ~group:"models" ~target:"models" (model_tests insts);
  if not smoke then run_sinr_tail ()

(* ------------------------ improve bench ---------------------------- *)

(* The quality-vs-budget sweep: GLS/VNS local search from cold G-OPT
   starts on fixed instances (independent of --smoke, like the
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
   G-OPT start and over a baseline start (the start with the most slack,
   where the moves are accepted most often). *)
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

let known = [ "churn"; "micro"; "search"; "models"; "improve" ]

let () =
  (* [json] is [None] until --json/--no-json appears, so --smoke can
     default to no file without overriding an explicit request. *)
  let rec parse targets json cmp tr mt = function
    | [] -> (List.rev targets, json, cmp, tr, mt)
    | "--json" :: v :: rest -> parse targets (Some (Some v)) cmp tr mt rest
    | [ "--json" ] -> failwith "--json needs a value"
    | "--no-json" :: rest -> parse targets (Some None) cmp tr mt rest
    | "--compare" :: v :: rest -> parse targets json (Some v) tr mt rest
    | [ "--compare" ] -> failwith "--compare needs a value"
    | "--trace" :: v :: rest -> parse targets json cmp (Some v) mt rest
    | [ "--trace" ] -> failwith "--trace needs a value"
    | "--metrics" :: v :: rest -> parse targets json cmp tr (Some v) rest
    | [ "--metrics" ] -> failwith "--metrics needs a value"
    | a :: rest -> parse (a :: targets) json cmp tr mt rest
  in
  let args, json_arg, cmp, trace_file, metrics_file =
    parse [] None None None None (List.tl (Array.to_list Sys.argv))
  in
  let smoke = List.mem "--smoke" args in
  let targets = List.filter (fun a -> a <> "--smoke") args in
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
  let cfg = if smoke then Config.smoke else Config.default in
  (* The whole run executes under the telemetry wrapper (a no-op
     without --trace/--metrics); the regression exit happens outside
     it, after the artifacts are on disk. *)
  let failed =
    Export.with_files ?trace_file ?metrics_file @@ fun () ->
    (* Pre-size the search scratch before anything is timed. Every
       kernel runs on this domain; no pool domain is spawned. *)
    Mlbs_core.Mcounter.prewarm ~n:(List.fold_left max 150 cfg.Config.node_counts);
    emit "run" "config"
      [
        ("host_cores", "count", float_of_int (Mlbs_util.Pool.default_jobs ()));
        ("smoke", "bool", if smoke then 1. else 0.);
      ];
    let total0 = now_s () in
    if want "churn" then run_churn ~smoke;
    if want "search" then run_search ();
    if want "models" then run_models ~smoke;
    if want "improve" then run_improve ();
    if want "micro" then run_micro cfg ~smoke;
    let total = now_s () -. total0 in
    Printf.printf "total: %.1fs\n" total;
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
