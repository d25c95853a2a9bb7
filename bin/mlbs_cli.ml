(* mlbs — command-line driver for the minimum-latency broadcast library.

   Subcommands:
     generate    sample a deployment and print its topology statistics
     schedule    run one scheduling policy on a deployment and print the plan
     trace       print the paper's Table II/III/IV walkthroughs, or
                 ('trace run') execute an instrumented scenario and dump
                 Perfetto trace + metrics artifacts
     experiment  regenerate a figure of the paper's evaluation, or the
                 ablation tables ('experiment ablation') *)

open Cmdliner

module Rng = Mlbs_prng.Rng
module Network = Mlbs_wsn.Network
module Churn = Mlbs_wsn.Churn
module Metrics = Mlbs_graph.Metrics
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Interference = Mlbs_phy.Interference
module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Scheduler = Mlbs_core.Scheduler
module Mcounter = Mlbs_core.Mcounter
module Bounds = Mlbs_core.Bounds
module Validate = Mlbs_sim.Validate
module Improve = Mlbs_search.Improve
module Config = Mlbs_workload.Config
module Figures = Mlbs_workload.Figures
module Report = Mlbs_workload.Report
module Export = Mlbs_obs.Export
module Obs_metrics = Mlbs_obs.Metrics
module Sv_codec = Mlbs_server.Codec
module Sv_client = Mlbs_server.Client
module Sv_daemon = Mlbs_server.Daemon
module Sv_fleet = Mlbs_server.Fleet
module Sv_version = Mlbs_server.Version

(* ------------------------- common args ----------------------------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic RNG seed.")

let nodes_arg =
  Arg.(
    value & opt int 150
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes to deploy (paper: 50-300).")

let rate_arg =
  Arg.(
    value & opt (some int) None
    & info [ "r"; "rate" ] ~docv:"RATE"
        ~doc:"Duty-cycle rate in slots; omit for the synchronous system.")

let model_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Interference.parse s) in
  let print ppf m = Format.pp_print_string ppf (Interference.to_string m) in
  Arg.conv (parse, print)

let model_arg =
  Arg.(
    value & opt model_conv Interference.Udg
    & info [ "model" ] ~docv:"MODEL"
        ~doc:
          "Interference model: $(b,udg) (the paper's protocol model, default), \
           $(b,sinr)[:ALPHA,BETA,NOISE,POWER] (additive physical model), or \
           $(b,mc:K) (K-channel multi-channel scheduling).")

let codec_policy = function
  | Scheduler.Baseline -> Sv_codec.Baseline
  | Scheduler.Emodel -> Sv_codec.Emodel
  | Scheduler.Gopt _ -> Sv_codec.Gopt
  | Scheduler.Opt _ -> Sv_codec.Opt

let build_request ?(model = Interference.Udg) ~policy ~rate ~seed ~n ~source ~start () =
  let topology = Sv_codec.Gen { n; radius = Config.default.Config.radius } in
  { Sv_codec.policy = codec_policy policy; rate; seed; topology; source; start; model }

(* The paper's instance (§V.A) for N nodes and SEED: the model and
   source the service resolves for the same generator request, so a CLI
   run schedules what [mlbs request] would be served. The policy is not
   part of the instance. *)
let instance ?model ~rate ~seed ~n () =
  Sv_daemon.instance
    (build_request ?model ~policy:Scheduler.Emodel ~rate ~seed ~n ~source:None ~start:1 ())

let trace_file_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record span tracing and write a Chrome-trace JSON (loadable at \
           ui.perfetto.dev) plus a .jsonl sibling to $(docv).")

let metrics_file_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Record the metrics registry and write its merged snapshot to $(docv).")

(* -------------------------- generate ------------------------------- *)

let generate n seed =
  let net = Model.network (fst (instance ~rate:None ~seed ~n ())) in
  let g = Network.graph net in
  Printf.printf "deployment: n=%d seed=%d area=50x50ft radius=10ft\n" n seed;
  Printf.printf "  edges:          %d\n" (Mlbs_graph.Graph.n_edges g);
  Printf.printf "  average degree: %.2f\n" (Metrics.average_degree g);
  Printf.printf "  diameter:       %d\n" (Metrics.diameter g);
  Printf.printf "  density:        %.3f nodes/sqft\n" (Network.density net ~area:2500.);
  0

let generate_cmd =
  Cmd.v
    (Cmd.info "generate" ~doc:"Sample a connected deployment and print statistics")
    Term.(const generate $ nodes_arg $ seed_arg)

(* -------------------------- schedule ------------------------------- *)

let policy_conv =
  let parse = function
    | "baseline" -> Ok Scheduler.Baseline
    | "opt" -> Ok Scheduler.opt
    | "gopt" -> Ok Scheduler.gopt
    | "emodel" -> Ok Scheduler.Emodel
    | s -> Error (`Msg (Printf.sprintf "unknown policy %S (baseline|opt|gopt|emodel)" s))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with
      | Scheduler.Baseline -> "baseline"
      | Scheduler.Opt _ -> "opt"
      | Scheduler.Gopt _ -> "gopt"
      | Scheduler.Emodel -> "emodel")
  in
  Arg.conv (parse, print)

let policy_arg =
  Arg.(
    value & opt policy_conv Scheduler.Emodel
    & info [ "p"; "policy" ] ~docv:"POLICY" ~doc:"baseline | opt | gopt | emodel.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every advance of the schedule.")

let schedule n seed rate policy phy verbose =
  let model, source = instance ~model:phy ~rate ~seed ~n () in
  let system = Model.system model in
  let plan = Scheduler.run model policy ~source ~start:1 in
  let d = Bounds.source_depth model ~source in
  let report = Validate.check model plan in
  Printf.printf "policy=%s source=%d d=%d\n" (Scheduler.name ~system policy) source d;
  (* Printed only off the default so UDG output stays byte-identical to
     what this command has always emitted. *)
  if phy <> Interference.Udg then
    Printf.printf "model:         %s\n" (Interference.to_string phy);
  Printf.printf "latency:       %d %s\n" (Schedule.elapsed plan)
    (match rate with None -> "rounds" | Some _ -> "slots");
  Printf.printf "transmissions: %d\n" (Schedule.n_transmissions plan);
  Printf.printf "radio replay:  %s\n" (if report.Validate.ok then "valid" else "INVALID");
  (match rate with
  | None -> Printf.printf "theorem 1:     < %d rounds\n" (Bounds.opt_sync ~d)
  | Some r -> Printf.printf "theorem 1:     < %d slots\n" (Bounds.opt_async ~d ~rate:r));
  if verbose then Format.printf "%a@." Schedule.pp plan;
  if report.Validate.ok then 0 else 1

let schedule_cmd =
  Cmd.v
    (Cmd.info "schedule" ~doc:"Run one scheduling policy on a deployment")
    Term.(
      const schedule $ nodes_arg $ seed_arg $ rate_arg $ policy_arg $ model_arg
      $ verbose_arg)

(* --------------------------- improve ------------------------------- *)

(* Anytime local-search polishing of one constructed schedule: run the
   policy, then spend an evaluation budget of GLS/VNS moves on the
   result and report the quality trajectory. The improved schedule is
   radio-replayed before printing, like everything else. *)
let improve_run n seed rate policy phy budget search_seed verbose =
  let model, source = instance ~model:phy ~rate ~seed ~n () in
  let system = Model.system model in
  let plan = Scheduler.run model policy ~source ~start:1 in
  let o = Improve.improve ~seed:search_seed ~budget model plan in
  let report = Validate.check model o.Improve.schedule in
  Printf.printf "policy=%s source=%d model=%s\n" (Scheduler.name ~system policy) source
    (Interference.to_string phy);
  Printf.printf "start latency:  %d %s\n" (Schedule.elapsed plan)
    (match rate with None -> "rounds" | Some _ -> "slots");
  Printf.printf "final latency:  %d (%s)\n"
    (Schedule.elapsed o.Improve.schedule)
    (if o.Improve.improved then
       Printf.sprintf "%d slots saved"
         (Schedule.elapsed plan - Schedule.elapsed o.Improve.schedule)
     else "no strictly better candidate");
  Printf.printf "search:         %d/%d evaluations, %d accepted\n" o.Improve.evals budget
    o.Improve.accepted;
  Printf.printf "gls/vns:        penalty-bumps=%d resets=%d escalations=%d\n"
    o.Improve.penalty_bumps o.Improve.penalty_resets o.Improve.escalations;
  Printf.printf "radio replay:   %s\n" (if report.Validate.ok then "valid" else "INVALID");
  if verbose then Format.printf "%a@." Schedule.pp o.Improve.schedule;
  if report.Validate.ok then 0 else 1

let improve_cmd =
  let budget_arg =
    Arg.(
      value & opt int 2000
      & info [ "budget" ] ~docv:"EVALS"
          ~doc:"Candidate-evaluation budget; 0 returns the constructed schedule as-is.")
  in
  let search_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "search-seed" ] ~docv:"SEED"
          ~doc:"RNG seed of the local search (the result is deterministic per seed).")
  in
  Cmd.v
    (Cmd.info "improve"
       ~doc:"Polish a constructed schedule with GLS/VNS local search under a budget")
    Term.(
      const improve_run $ nodes_arg $ seed_arg $ rate_arg $ policy_arg $ model_arg
      $ budget_arg $ search_seed_arg $ verbose_arg)

(* ---------------------------- trace -------------------------------- *)

(* 'trace run': one instrumented scenario — G-OPT schedule plus the
   distributed protocol on the same instance — dumped as a
   Perfetto-loadable trace and a metrics snapshot. *)
let trace_run n seed rate phy trace_file metrics_file =
  let trace_file = Option.value trace_file ~default:"mlbs.trace.json" in
  let metrics_file = Option.value metrics_file ~default:"mlbs.metrics.json" in
  let model, source = instance ~model:phy ~rate ~seed ~n () in
  let plan, polished, report, stats =
    Export.with_files ~trace_file ~metrics_file (fun () ->
        let plan = Scheduler.run model Scheduler.gopt ~source ~start:1 in
        let report = Validate.check model plan in
        let polished = Improve.improve ~seed ~budget:512 model plan in
        let stats = Mlbs_proto.Broadcast_protocol.run model ~source ~start:1 in
        (plan, polished, report, stats))
  in
  let c = Obs_metrics.counter_value in
  Printf.printf "telemetry run: n=%d seed=%d%s source=%d\n" n seed
    (match rate with None -> " sync" | Some r -> Printf.sprintf " r=%d" r)
    source;
  Printf.printf "G-OPT latency:    %d (radio replay: %s)\n" (Schedule.elapsed plan)
    (if report.Validate.ok then "valid" else "INVALID");
  Printf.printf "protocol latency: %d\n" stats.Mlbs_proto.Broadcast_protocol.latency;
  Printf.printf "search:   states=%d memo=%d/%d prunes=%d color-selections=%d\n"
    (c "search/states") (c "search/memo_hit") (c "search/memo_miss")
    (c "search/bnb_prunes") (c "search/color_selections");
  Printf.printf "bounds:   ecc-prunes=%d packing-prunes=%d dominance-prunes=%d\n"
    (c "search/bound_prune_ecc") (c "search/bound_prune_packing")
    (c "search/dominance_prunes");
  Printf.printf "ttable:   hit=%d miss=%d collisions=%d grows=%d\n"
    (c "search/tt_hit") (c "search/tt_miss") (c "search/tt_collision") (c "search/tt_grow");
  Printf.printf "phy:      model=%s conflict-checks=%d power-evals=%d \
                 channel-assignments=%d\n"
    (Interference.to_string phy) (c "phy/conflict_checks") (c "phy/power_evals")
    (c "phy/channel_assignments");
  Printf.printf "improve:  latency %d -> %d, tried=%d accepted=%d slots-saved=%d\n"
    (Schedule.elapsed plan)
    (Schedule.elapsed polished.Improve.schedule)
    (c "search/improve/moves_tried") (c "search/improve/moves_accepted")
    (c "search/improve/slots_saved");
  Printf.printf "gls/vns:  penalty-bumps=%d penalty-resets=%d escalations=%d\n"
    (c "search/improve/penalty_bumps") (c "search/improve/penalty_resets")
    (c "search/improve/escalations");
  Printf.printf "protocol: slots=%d sends=%d collisions=%d retransmissions=%d\n"
    (c "proto/slots") (c "proto/sends") (c "proto/collisions")
    (c "proto/retransmissions");
  Printf.printf "waiting:  conflict=%d slots, cwt=%d slots\n"
    (c "proto/wait_conflict_slots") (c "proto/wait_cwt_slots");
  Printf.printf "trace:    %s (open at ui.perfetto.dev; events in %s)\n" trace_file
    (Mlbs_obs.Export.jsonl_path trace_file);
  Printf.printf "metrics:  %s\n" metrics_file;
  if report.Validate.ok then 0 else 1

let trace table n seed rate phy trace_file metrics_file =
  match table with
  | "2" ->
      print_string (Figures.table2 ());
      0
  | "3" ->
      print_string (Figures.table3 ());
      0
  | "4" ->
      print_string (Figures.table4 ());
      0
  | "all" ->
      print_string (Figures.table2 ());
      print_newline ();
      print_string (Figures.table3 ());
      print_newline ();
      print_string (Figures.table4 ());
      0
  | "run" -> trace_run n seed rate phy trace_file metrics_file
  | other ->
      Printf.eprintf "unknown table %S (2|3|4|all|run)\n" other;
      2

let trace_cmd =
  let table_arg =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"TABLE"
          ~doc:
            "2 | 3 | 4 | all — print the paper's schedule walkthroughs; or $(b,run) — \
             execute an instrumented scenario and dump trace + metrics artifacts.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Print the paper's Table II/III/IV walkthroughs, or run an instrumented \
          scenario ('trace run') producing Perfetto trace and metrics files")
    Term.(
      const trace $ table_arg $ nodes_arg $ seed_arg $ rate_arg $ model_arg
      $ trace_file_arg $ metrics_file_arg)

(* ----------------------- tree / energy ----------------------------- *)

let tree n seed rate policy =
  let model, source = instance ~rate ~seed ~n () in
  let system = Model.system model in
  let plan = Scheduler.run model policy ~source ~start:1 in
  let tree = Mlbs_core.Broadcast_tree.of_schedule model plan in
  Printf.printf "policy=%s source=%d\n" (Scheduler.name ~system policy) source;
  Printf.printf "tree height:   %d\n" (Mlbs_core.Broadcast_tree.height tree);
  let relays = Mlbs_core.Broadcast_tree.relays tree in
  Printf.printf "relays:        %d of %d nodes\n" (List.length relays) n;
  let widths = List.map (fun u -> List.length (Mlbs_core.Broadcast_tree.children tree u)) relays in
  Printf.printf "max fan-out:   %d\n" (List.fold_left max 0 widths);
  Printf.printf "mean fan-out:  %.2f\n"
    (float_of_int (List.fold_left ( + ) 0 widths) /. float_of_int (List.length relays));
  0

let tree_cmd =
  Cmd.v
    (Cmd.info "tree" ~doc:"Show the broadcast tree a policy induces")
    Term.(const tree $ nodes_arg $ seed_arg $ rate_arg $ policy_arg)

let energy n seed rate policy =
  let model, source = instance ~rate ~seed ~n () in
  let system = Model.system model in
  let plan = Scheduler.run model policy ~source ~start:1 in
  let r = Mlbs_sim.Energy.charge model plan in
  Printf.printf "policy=%s latency=%d\n" (Scheduler.name ~system policy)
    (Schedule.elapsed plan);
  Printf.printf "energy total:  %.1f\n" r.Mlbs_sim.Energy.total;
  Printf.printf "  transmit:    %.1f\n" r.Mlbs_sim.Energy.tx_energy;
  Printf.printf "  receive:     %.1f\n" r.Mlbs_sim.Energy.rx_energy;
  Printf.printf "  idle listen: %.1f\n" r.Mlbs_sim.Energy.idle_energy;
  let worst = Array.fold_left max 0. r.Mlbs_sim.Energy.per_node in
  Printf.printf "  hottest node: %.1f\n" worst;
  0

let energy_cmd =
  Cmd.v
    (Cmd.info "energy" ~doc:"Charge a policy's schedule under the radio energy model")
    Term.(const energy $ nodes_arg $ seed_arg $ rate_arg $ policy_arg)

let localized n seed rate =
  let model, source = instance ~rate ~seed ~n () in
  let r = Mlbs_proto.Localized.run model ~source ~start:1 in
  let check = Mlbs_sim.Validate.check_lossy model r.Mlbs_proto.Localized.schedule in
  Printf.printf "localized protocol (2-hop views, E-based selection, exponential back-off)\n";
  Printf.printf "latency:         %d %s\n" r.Mlbs_proto.Localized.latency
    (match rate with None -> "rounds" | Some _ -> "slots");
  Printf.printf "collisions:      %d\n" r.Mlbs_proto.Localized.collisions;
  Printf.printf "retransmissions: %d\n" r.Mlbs_proto.Localized.retransmissions;
  Printf.printf "coverage:        %s\n"
    (if check.Mlbs_sim.Validate.ok then "complete" else "INCOMPLETE");
  (* The fully distributed variant: beacons only, no oracle. *)
  let d = Mlbs_proto.Broadcast_protocol.run model ~source ~start:1 in
  Printf.printf "\nfully distributed (beacons only):\n";
  Printf.printf "latency:         %d\n" d.Mlbs_proto.Broadcast_protocol.latency;
  Printf.printf "collisions:      %d\n" d.Mlbs_proto.Broadcast_protocol.collisions;
  Printf.printf "retransmissions: %d\n" d.Mlbs_proto.Broadcast_protocol.retransmissions;
  Printf.printf "beacons sent:    %d\n" d.Mlbs_proto.Broadcast_protocol.beacon_messages;
  Printf.printf "E-build msgs:    %d (Theorem 3 bound: %d)\n"
    d.Mlbs_proto.Broadcast_protocol.e_messages (4 * n);
  (* Compare against the centralized E-model on the same instance. *)
  let plan = Scheduler.run model Scheduler.Emodel ~source ~start:1 in
  Printf.printf "\ncentralized E-model: %d\n" (Schedule.elapsed plan);
  if check.Mlbs_sim.Validate.ok then 0 else 1

let localized_cmd =
  Cmd.v
    (Cmd.info "localized"
       ~doc:"Simulate the localized (future-work) protocol and compare to centralized")
    Term.(const localized $ nodes_arg $ seed_arg $ rate_arg)

(* ---------------------------- faults ------------------------------- *)

let faults n seed rate loss crash fault_seed jitter sweep trace_file metrics_file =
  let cfg =
    {
      Config.default with
      Config.node_counts = [ n ];
      seeds = [ seed ];
      crash_fraction = crash;
      fault_seed;
    }
  in
  Export.with_files ?trace_file ?metrics_file @@ fun () ->
  if sweep then begin
    List.iter
      (fun f ->
        print_string (Report.render_figure f);
        print_newline ())
      (Figures.fig_reliability cfg);
    0
  end
  else begin
    let module Experiment = Mlbs_workload.Experiment in
    let module Tab = Mlbs_util.Tab in
    let inst = Experiment.make_instance cfg ~n ~seed in
    let ms = Experiment.run_faulty cfg ?rate ~inst_seed:seed ~jitter ~loss inst in
    Printf.printf "fault plan: loss=%.2f crash=%.2f jitter=%d fault-seed=0x%X (n=%d seed=%d%s)\n"
      loss crash jitter fault_seed n seed
      (match rate with None -> ", sync" | Some r -> Printf.sprintf ", r=%d" r);
    let tab =
      Tab.create ~title:"Graceful degradation under the fault plan"
        [ "policy"; "delivery"; "latency"; "stretch"; "retransmissions"; "energy" ]
    in
    List.iter
      (fun (m : Experiment.fault_measurement) ->
        Tab.add_float_row tab ~label:m.Experiment.policy
          [
            m.Experiment.delivery;
            m.Experiment.latency;
            m.Experiment.stretch;
            float_of_int m.Experiment.retransmissions;
            m.Experiment.energy_overhead;
          ])
      ms;
    Tab.print tab;
    (* Independent audit: replay the static schedules under the plan
       and confirm every delivered reception was conflict-free. *)
    let system =
      match rate with
      | None -> Model.Sync
      | Some r ->
          Model.Async (Wake_schedule.create ~rate:r ~n_nodes:n ~seed:(seed * 104729) ())
    in
    let model = Model.create inst.Experiment.net system in
    let plan_faults = Experiment.fault_plan cfg ~inst_seed:seed ~jitter ~loss inst in
    let ok =
      List.for_all
        (fun (label, policy) ->
          let schedule =
            Scheduler.run model policy ~source:inst.Experiment.source ~start:1
          in
          let fr = Validate.check_under_faults model ~faults:plan_faults schedule in
          Printf.printf "%s: conflict-free under faults: %s (%d/%d alive delivered, %d lost)\n"
            label
            (if fr.Validate.ok then "yes" else "NO")
            fr.Validate.delivered fr.Validate.alive fr.Validate.lost;
          List.iter (Printf.printf "  %s\n") fr.Validate.violations;
          fr.Validate.ok)
        [
          ("G-OPT", Scheduler.Gopt cfg.Config.budget);
          ("E-model", Scheduler.Emodel);
        ]
    in
    if ok then 0 else 1
  end

let faults_cmd =
  let loss_arg =
    Arg.(
      value & opt float 0.2
      & info [ "loss" ] ~docv:"P" ~doc:"Per-link Bernoulli packet-loss probability.")
  in
  let crash_arg =
    Arg.(
      value & opt float 0.
      & info [ "crash" ] ~docv:"F"
          ~doc:"Fraction of non-source nodes crashed during the broadcast (0 disables).")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 0xFA17
      & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Master seed of the fault plan.")
  in
  let jitter_arg =
    Arg.(
      value & opt int 0
      & info [ "jitter" ] ~docv:"J"
          ~doc:"Max wake-slot clock drift per node (duty cycle only).")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:"Print the full reliability sweep (delivery and stretch vs loss rate).")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Inject packet loss, crashes and clock jitter and measure degradation")
    Term.(
      const faults $ nodes_arg $ seed_arg $ rate_arg $ loss_arg $ crash_arg
      $ fault_seed_arg $ jitter_arg $ sweep_arg $ trace_file_arg $ metrics_file_arg)

(* --------------------- scheduling service -------------------------- *)

let default_socket = Filename.concat (Filename.get_temp_dir_name ()) "mlbs.sock"

let socket_arg =
  Arg.(
    value & opt string default_socket
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket of the service.")

let tcp_arg =
  Arg.(
    value & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"TCP port of the service (on 127.0.0.1).")

let endpoint socket tcp =
  match tcp with
  | Some port -> Sv_client.Tcp { host = "127.0.0.1"; port }
  | None -> Sv_client.Unix_socket socket

let serve socket tcp backend jobs queue cache cache_dir models trace_file metrics_file =
  Export.with_files ?trace_file ?metrics_file @@ fun () ->
  if backend && tcp = None then begin
    Printf.eprintf "serve --backend needs --tcp PORT (0 picks an ephemeral port)\n";
    2
  end
  else begin
    let jobs = Option.value jobs ~default:Config.default.Config.jobs in
    let dcfg =
      {
        Sv_daemon.socket_path = (if backend then None else Some socket);
        tcp_port = tcp;
        jobs;
        queue_capacity = queue;
        cache_capacity = cache;
        cache_dir;
        allowed_models = (match models with [] -> None | l -> Some l);
      }
    in
    let t = Sv_daemon.start dcfg in
    Printf.printf "mlbs scheduling service %s (protocol v%d)\n" Sv_version.version
      Sv_codec.protocol_version;
    (* The "backend ready" line is parsed by fleet scripts (the CI
       chaos smoke) to learn an ephemeral port — keep its shape stable. *)
    (match (backend, Sv_daemon.tcp_port t) with
    | true, Some p -> Printf.printf "backend ready on 127.0.0.1:%d\n" p
    | _ ->
        Printf.printf "listening on %s%s\n" socket
          (match Sv_daemon.tcp_port t with
          | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
          | None -> ""));
    Printf.printf "jobs=%d queue=%d cache=%d%s\n%!" jobs queue cache
      (match cache_dir with Some d -> " cache-dir=" ^ d | None -> "");
    let on_signal _ = Sv_daemon.stop t in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sv_daemon.wait t;
    Printf.printf "server stopped\n";
    0
  end

let serve_cmd =
  let defaults = Sv_daemon.default_config ~socket_path:"" in
  let queue_arg =
    Arg.(
      value
      & opt int defaults.Sv_daemon.queue_capacity
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission-queue bound; further solve requests are shed with a retry hint.")
  in
  let cache_arg =
    Arg.(
      value
      & opt int defaults.Sv_daemon.cache_capacity
      & info [ "cache" ] ~docv:"N" ~doc:"Schedule-cache capacity (LRU entries).")
  in
  let cache_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Warm the cache from $(docv) on start; persist hot entries on shutdown.")
  in
  let jobs_arg =
    Arg.(
      value & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc:"Solver pool size (default: all cores).")
  in
  let backend_arg =
    Arg.(
      value & flag
      & info [ "backend" ]
          ~doc:
            "Run as a fleet shard: TCP only (requires $(b,--tcp); 0 picks an ephemeral \
             port), no Unix socket, and print 'backend ready on 127.0.0.1:PORT' once \
             accepting.")
  in
  let models_arg =
    Arg.(
      value
      & opt_all model_conv []
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Serve only this interference model (repeatable; default: all). Requests \
             for any other model are refused with an error reply.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the scheduling service daemon")
    Term.(
      const serve $ socket_arg $ tcp_arg $ backend_arg $ jobs_arg $ queue_arg $ cache_arg
      $ cache_dir_arg $ models_arg $ trace_file_arg $ metrics_file_arg)

(* fleet: the front tier — consistent-hash routing over backend shards
   started with [serve --backend]. *)

let parse_backend s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Sv_client.Tcp { host; port = p }
      | _ -> failwith (s ^ ": expected HOST:PORT"))
  | _ -> failwith (s ^ ": expected HOST:PORT")

let fleet socket tcp backends health_period trace_file metrics_file =
  Export.with_files ?trace_file ?metrics_file @@ fun () ->
  match List.map parse_backend backends with
  | exception Failure msg ->
      Printf.eprintf "fleet: %s\n" msg;
      2
  | [] ->
      Printf.eprintf "fleet: need --backends HOST:PORT[,...]\n";
      2
  | backends ->
      let fcfg =
        {
          (Sv_fleet.default_config ~backends ~socket_path:socket) with
          Sv_fleet.tcp_port = tcp;
          health_period;
        }
      in
      let t = Sv_fleet.start fcfg in
      Printf.printf "mlbs fleet front %s (protocol v%d)\n" Sv_version.version
        Sv_codec.protocol_version;
      Printf.printf "listening on %s%s\n" socket
        (match Sv_fleet.tcp_port t with
        | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
        | None -> "");
      Printf.printf "shards: %s\n%!"
        (String.concat ", " (List.map Sv_fleet.endpoint_name backends));
      let on_signal _ = Sv_fleet.stop t in
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Sv_fleet.wait t;
      Printf.printf "fleet stopped\n";
      0

let fleet_cmd =
  let backends_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "backends" ] ~docv:"HOST:PORT,..."
          ~doc:"Comma-separated backend shards (started with $(b,serve --backend)).")
  in
  let health_period_arg =
    Arg.(
      value & opt float 1.0
      & info [ "health-period" ] ~docv:"SECONDS"
          ~doc:"Interval between backend health probes.")
  in
  Cmd.v
    (Cmd.info "fleet" ~doc:"Run the fleet front tier over backend shards")
    Term.(
      const fleet $ socket_arg $ tcp_arg $ backends_arg $ health_period_arg
      $ trace_file_arg $ metrics_file_arg)

(* Every reply must be byte-identical to a direct solve. *)
let verify_against_local req (ok : Sv_codec.ok_reply) =
  let _, local = Sv_daemon.solve req in
  Sv_codec.schedule_bytes local = Sv_codec.schedule_bytes ok.Sv_codec.schedule

(* One churn event: drift [k] nodes of [net] by up to 20% of the radius
   and ship the resulting rewires as a wire delta. *)
let drift_delta rng net ~k =
  let d = Churn.drift rng net ~k ~jitter:(Config.default.Config.radius /. 5.) in
  (d.Churn.network, { Sv_codec.d_added = []; d_removed = []; d_rewired = d.Churn.rewired })

let request socket tcp n seed rate policy model source start delta delta_seed verify
    verbose =
  let req = build_request ~model ~policy ~rate ~seed ~n ~source ~start () in
  let c, `Version server_version, `Match version_match = endpoint socket tcp |> Sv_client.connect in
  Fun.protect ~finally:(fun () -> Sv_client.close c) @@ fun () ->
  let outcome, vreq =
    if delta = 0 then (Sv_client.request_retry c req, req)
    else begin
      let net = Model.network (Sv_daemon.model_of req) in
      let _, d = drift_delta (Rng.create delta_seed) net ~k:delta in
      Printf.printf "delta:         %d nodes drifted, %d rewired\n" delta
        (List.length d.Sv_codec.d_rewired);
      (Sv_client.reschedule_retry c ~base:req ~delta:d, Sv_daemon.derived_request req d)
    end
  in
  match outcome with
  | Sv_client.Ok ok ->
      Printf.printf "server:        %s%s\n" server_version
        (if version_match then "" else Printf.sprintf " (client is %s)" Sv_version.version);
      Printf.printf "trace id:      %s (cache %s)\n" ok.Sv_codec.trace_id
        (if ok.Sv_codec.cache_hit then "hit" else "miss");
      Printf.printf "latency:       %d %s\n" ok.Sv_codec.stats.Sv_codec.elapsed
        (match rate with None -> "rounds" | Some _ -> "slots");
      Printf.printf "transmissions: %d\n" ok.Sv_codec.stats.Sv_codec.transmissions;
      Printf.printf "solve time:    %d us (%d search states)\n"
        ok.Sv_codec.stats.Sv_codec.solve_us ok.Sv_codec.stats.Sv_codec.search_states;
      if verbose then Format.printf "%a@." Schedule.pp ok.Sv_codec.schedule;
      if verify then begin
        let same = verify_against_local vreq ok in
        Printf.printf "verify:        %s\n"
          (if same then "byte-identical to direct scheduler" else "MISMATCH");
        if same then 0 else 1
      end
      else 0
  | Sv_client.Rejected { retry_after_ms } ->
      Printf.eprintf "rejected: queue full, retry after %d ms\n" retry_after_ms;
      1
  | Sv_client.Error msg ->
      Printf.eprintf "server error: %s\n" msg;
      1

let request_cmd =
  let source_arg =
    Arg.(
      value & opt (some int) None
      & info [ "source" ] ~docv:"NODE"
          ~doc:"Broadcast source (default: the server's eccentricity-based pick).")
  in
  let start_arg =
    Arg.(value & opt int 1 & info [ "start" ] ~docv:"SLOT" ~doc:"Start slot t_s.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:"Re-solve locally and check the reply is byte-identical.")
  in
  let delta_arg =
    Arg.(
      value & opt int 0
      & info [ "delta" ] ~docv:"K"
          ~doc:
            "Send a reschedule instead of a plain request: drift $(docv) nodes of the \
             base topology and ask the service for the schedule of the edited graph.")
  in
  let delta_seed_arg =
    Arg.(
      value & opt int 0xD1F7
      & info [ "delta-seed" ] ~docv:"SEED" ~doc:"RNG seed of the drift (with --delta).")
  in
  Cmd.v
    (Cmd.info "request" ~doc:"Send one solve request to the scheduling service")
    Term.(
      const request $ socket_arg $ tcp_arg $ nodes_arg $ seed_arg $ rate_arg
      $ policy_arg $ model_arg $ source_arg $ start_arg $ delta_arg
      $ delta_seed_arg $ verify_arg $ verbose_arg)

(* Churn mode: one connection replaying a topology-churn stream per
   instance — a base solve, then [requests/seeds] drift events, each
   shipped as a [Reschedule] frame the daemon answers as its derived
   request (a solve of the edited topology). Reschedule latency is
   reported against the cold base solves; sampled events are
   byte-compared against a direct solve of the edited topology. *)
let churn_loadgen ep ~requests ~n ~seeds ~policy ~rate ~model ~churn ~verify_sample
    ~smoke =
  let events = max 1 (requests / seeds) in
  let c, _, _ = Sv_client.connect ep in
  Fun.protect ~finally:(fun () -> Sv_client.close c) @@ fun () ->
  let errors = ref 0 and hits = ref 0 and mismatches = ref 0 and verified = ref 0 in
  let cold = ref [] and repair = ref [] in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e6)
  in
  for s = 1 to seeds do
    let base = build_request ~model ~policy ~rate ~seed:s ~n ~source:None ~start:1 () in
    let net = Model.network (Sv_daemon.model_of base) in
    (match time (fun () -> Sv_client.request_retry ~attempts:8 c base) with
    | Sv_client.Ok _, us -> cold := us :: !cold
    | (Sv_client.Rejected _ | Sv_client.Error _), _ -> incr errors);
    let rng = Rng.create (0xC0FFEE + s) in
    for _ = 1 to events do
      let _, d = drift_delta rng net ~k:churn in
      (match time (fun () -> Sv_client.reschedule_retry ~attempts:8 c ~base ~delta:d) with
      | Sv_client.Ok ok, us ->
          repair := us :: !repair;
          if ok.Sv_codec.cache_hit then incr hits;
          if !verified < verify_sample then begin
            incr verified;
            if not (verify_against_local (Sv_daemon.derived_request base d) ok) then
              incr mismatches
          end
      | (Sv_client.Rejected _ | Sv_client.Error _), _ -> incr errors)
    done
  done;
  let summarize l =
    let a = Array.of_list l in
    Array.sort compare a;
    let mean = Array.fold_left ( +. ) 0.0 a /. float_of_int (max 1 (Array.length a)) in
    let p50 = if Array.length a = 0 then 0.0 else a.(Array.length a / 2) in
    (mean, p50)
  in
  let cold_mean, cold_p50 = summarize !cold in
  let rep_mean, rep_p50 = summarize !repair in
  Printf.printf "churn: %d instances (n=%d), %d drift events each (k=%d, %s)\n" seeds n
    events churn
    (match rate with None -> "sync" | Some r -> Printf.sprintf "r=%d" r);
  Printf.printf "cold solve us: mean=%.0f p50=%.0f   repair us: mean=%.0f p50=%.0f \
                 (%.1fx)\n"
    cold_mean cold_p50 rep_mean rep_p50
    (if rep_mean > 0. then cold_mean /. rep_mean else 0.);
  Printf.printf "outcome: repairs=%d (cache hits=%d) errors=%d\n" (List.length !repair)
    !hits !errors;
  if !verified > 0 then
    Printf.printf "verify: %d/%d sampled repairs consistent with direct scheduler\n"
      (!verified - !mismatches) !verified;
  if !mismatches > 0 || (smoke && !errors > 0) then 1 else 0

(* loadgen: [concurrency] client threads, each with its own connection,
   striping [requests] requests over [seeds] distinct instances (the
   seed space sets the attainable hit ratio: after each instance's
   first solve, repeats are cache hits). *)
let loadgen_plain socket tcp requests concurrency n seeds policy rate model verify_sample
    smoke fleet =
  let ep = endpoint socket tcp in
  let lat_us = Array.make requests 0.0 in
  let results = Array.make requests `Err in
  let req_of i =
    build_request ~model ~policy ~rate ~seed:(1 + (i mod seeds)) ~n ~source:None ~start:1 ()
  in
  let worker w () =
    let c, _, _ = Sv_client.connect ep in
    Fun.protect ~finally:(fun () -> Sv_client.close c) @@ fun () ->
    let i = ref w in
    while !i < requests do
      let t0 = Unix.gettimeofday () in
      (results.(!i) <-
         (match Sv_client.request_retry ~attempts:8 c (req_of !i) with
         | Sv_client.Ok ok -> if ok.Sv_codec.cache_hit then `Hit else `Miss
         | Sv_client.Rejected _ -> `Rejected
         | Sv_client.Error _ -> `Err));
      lat_us.(!i) <- (Unix.gettimeofday () -. t0) *. 1e6;
      i := !i + concurrency
    done
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init concurrency (fun w -> Thread.create (worker w) ()) in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let count tag = Array.fold_left (fun a r -> if r = tag then a + 1 else a) 0 results in
  let hits = count `Hit and misses = count `Miss in
  let rejected = count `Rejected and errors = count `Err in
  let ok_lats =
    Array.of_list
      (List.filteri (fun i _ -> results.(i) = `Hit || results.(i) = `Miss)
         (Array.to_list lat_us))
  in
  Array.sort compare ok_lats;
  let pct q =
    if Array.length ok_lats = 0 then 0.0
    else
      ok_lats.(min (Array.length ok_lats - 1)
                 (int_of_float (ceil (q *. float_of_int (Array.length ok_lats))) - 1))
  in
  Printf.printf "loadgen: %d requests, %d clients, %d instances (n=%d, %s)\n" requests
    concurrency seeds n
    (match rate with None -> "sync" | Some r -> Printf.sprintf "r=%d" r);
  Printf.printf "outcome: ok=%d (hit=%d miss=%d) rejected=%d error=%d\n"
    (hits + misses) hits misses rejected errors;
  Printf.printf "throughput: %.0f req/s (%.2f s wall)\n"
    (float_of_int requests /. wall_s)
    wall_s;
  Printf.printf "latency us: p50=%.0f p95=%.0f p99=%.0f\n" (pct 0.50) (pct 0.95) (pct 0.99);
  (* Byte-compare a sample of served schedules against the direct
     scheduler — one per distinct instance sampled. *)
  let mismatches = ref 0 in
  let sample = min verify_sample seeds in
  if sample > 0 then begin
    let c, _, _ = Sv_client.connect ep in
    Fun.protect ~finally:(fun () -> Sv_client.close c) @@ fun () ->
    for s = 0 to sample - 1 do
      let req = req_of s in
      match Sv_client.request_retry ~attempts:8 c req with
      | Sv_client.Ok ok -> if not (verify_against_local req ok) then incr mismatches
      | Sv_client.Rejected _ | Sv_client.Error _ -> incr mismatches
    done;
    Printf.printf "verify: %d/%d sampled replies consistent with direct scheduler\n"
      (sample - !mismatches) sample
  end;
  if fleet then begin
    let c, _, _ = Sv_client.connect ep in
    Fun.protect ~finally:(fun () -> Sv_client.close c) @@ fun () ->
    let kvs = Sv_client.stats c in
    let get k = Option.value ~default:0 (List.assoc_opt k kvs) in
    Printf.printf
      "fleet: requests=%d ok=%d rejected=%d rebalances=%d deaths=%d reroutes=%d\n"
      (get "server/fleet/requests")
      (get "server/fleet/replies_ok")
      (get "server/fleet/rejected")
      (get "server/fleet/rebalances")
      (get "server/fleet/deaths")
      (get "server/fleet/reroutes");
    let rec shards i =
      match List.assoc_opt (Printf.sprintf "server/fleet/shard%d/requests" i) kvs with
      | None -> ()
      | Some r ->
          let h = get (Printf.sprintf "server/fleet/shard%d/hits" i) in
          Printf.printf "fleet shard%d: requests=%d hits=%d (%.0f%% hit rate)\n" i r h
            (if r > 0 then 100.0 *. float_of_int h /. float_of_int r else 0.0);
          shards (i + 1)
    in
    shards 0
  end;
  (* Against a fleet, a bounded reject rate is expected while the ring
     rebalances around a dead shard — errors and mismatches still fail. *)
  let reject_budget = if fleet then requests / 5 else 0 in
  let failed =
    errors + !mismatches + if smoke && rejected > reject_budget then rejected else 0
  in
  if smoke && failed > 0 then begin
    Printf.eprintf "smoke: %d failed requests\n" failed;
    1
  end
  else if !mismatches > 0 then 1
  else 0

let loadgen socket tcp requests concurrency n seeds policy rate model churn verify_sample
    smoke fleet =
  match
    List.find_opt
      (fun (_, v) -> v < 1)
      [ ("requests", requests); ("concurrency", concurrency); ("instances", seeds) ]
  with
  | Some (flag, v) ->
      Printf.eprintf "loadgen: --%s must be >= 1, got %d\n" flag v;
      2
  | None when churn > 0 ->
      churn_loadgen (endpoint socket tcp) ~requests ~n ~seeds ~policy ~rate ~model ~churn
        ~verify_sample ~smoke
  | None ->
      loadgen_plain socket tcp requests concurrency n seeds policy rate model verify_sample
        smoke fleet

let loadgen_cmd =
  let requests_arg =
    Arg.(value & opt int 200 & info [ "requests" ] ~docv:"N" ~doc:"Total requests to send.")
  in
  let concurrency_arg =
    Arg.(
      value & opt int 8
      & info [ "concurrency" ] ~docv:"C" ~doc:"Concurrent client connections.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 10
      & info [ "instances" ] ~docv:"K"
          ~doc:
            "Distinct instance seeds striped over the requests — sets the attainable \
             cache-hit ratio.")
  in
  let verify_arg =
    Arg.(
      value & opt int 3
      & info [ "verify-sample" ] ~docv:"K"
          ~doc:"Byte-compare $(docv) served instances against the direct scheduler.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"CI mode: any error, mismatch or unserved rejection fails the run.")
  in
  let churn_arg =
    Arg.(
      value & opt int 0
      & info [ "churn" ] ~docv:"K"
          ~doc:
            "Churn-stream mode: per instance, solve once then send the remaining \
             budget as reschedule frames, each drifting $(docv) nodes of the topology.")
  in
  let fleet_arg =
    Arg.(
      value & flag
      & info [ "fleet" ]
          ~doc:
            "Fleet mode: print server/fleet/* shard stats after the run, and in \
             $(b,--smoke) tolerate a bounded reject rate (20%) while the ring \
             rebalances — errors and mismatches still fail.")
  in
  Cmd.v
    (Cmd.info "loadgen" ~doc:"Drive the scheduling service with concurrent clients")
    Term.(
      const loadgen $ socket_arg $ tcp_arg $ requests_arg $ concurrency_arg $ nodes_arg
      $ seeds_arg $ policy_arg $ rate_arg $ model_arg $ churn_arg $ verify_arg
      $ smoke_arg $ fleet_arg)

(* -------------------------- experiment ----------------------------- *)

(* The ablation study binds only the protocol model and writes no CSV:
   one of its ten tables reads [cfg.model], so any other model would
   print a report only partly under it. *)
let experiment figure quick smoke jobs model csv_dir trace_file metrics_file =
  let cfg = if smoke then Config.smoke else if quick then Config.quick else Config.default in
  let cfg = match jobs with Some j -> { cfg with Config.jobs = j } | None -> cfg in
  let cfg = { cfg with Config.model } in
  let figures build =
    Export.with_files ?trace_file ?metrics_file @@ fun () ->
    List.iter
      (fun f ->
        print_string (Report.render_figure f);
        print_newline ();
        match csv_dir with
        | Some dir -> Printf.printf "wrote %s\n" (Report.write_csv ~dir f)
        | None -> ())
      (build cfg);
    0
  in
  let one figure cfg = [ figure cfg ] in
  match figure with
  | `Fig3 -> figures (one Figures.fig3)
  | `Fig4 -> figures (one Figures.fig4)
  | `Fig5 -> figures (one Figures.fig5)
  | `Fig6 -> figures (one Figures.fig6)
  | `Fig7 -> figures (one Figures.fig7)
  | `Reliability -> figures Figures.fig_reliability
  | `All ->
      figures (fun cfg ->
          [ Figures.fig3 cfg; Figures.fig4 cfg; Figures.fig5 cfg; Figures.fig6 cfg;
            Figures.fig7 cfg ]
          @ Figures.fig_reliability cfg)
  | `Ablation when csv_dir <> None ->
      Printf.eprintf "experiment ablation writes no CSV; drop --csv\n";
      2
  | `Ablation when model <> Interference.Udg ->
      Printf.eprintf "experiment ablation runs under --model udg only, got %s\n"
        (Interference.to_string model);
      2
  | `Ablation ->
      Export.with_files ?trace_file ?metrics_file @@ fun () ->
      print_string (Mlbs_workload.Ablation.report cfg);
      0

let experiment_cmd =
  let figure_arg =
    let figures =
      [ ("fig3", `Fig3); ("fig4", `Fig4); ("fig5", `Fig5); ("fig6", `Fig6); ("fig7", `Fig7);
        ("reliability", `Reliability); ("ablation", `Ablation); ("all", `All) ]
    in
    Arg.(
      value & pos 0 (enum figures) `All
      & info [] ~docv:"FIGURE"
          ~doc:
            (Printf.sprintf
               "%s. $(b,all) is fig3 to fig7 plus reliability; $(b,ablation) is the \
                design-choice ablation tables."
               (doc_alts_enum figures)))
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweep (3 node counts, 2 seeds).")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Minimal sweep (one node count, one seed) sized for CI; takes precedence \
             over $(b,--quick).")
  in
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some j when j >= 1 -> Ok j
      | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let jobs_arg =
    Arg.(
      value & opt (some jobs_conv) None
      & info [ "j"; "jobs" ] ~docv:"JOBS"
          ~doc:
            "Worker domains for the sweep (default: all cores). Output is \
             byte-identical at any setting.")
  in
  let csv_arg =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write one CSV per figure into $(docv).")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate a figure of the paper's evaluation, or the ablation tables")
    Term.(
      const experiment $ figure_arg $ quick_arg $ smoke_arg $ jobs_arg
      $ model_arg $ csv_arg $ trace_file_arg $ metrics_file_arg)

let () =
  let info =
    Cmd.info "mlbs" ~version:Sv_version.version
      ~doc:
        "Minimum-latency broadcast scheduling with conflict awareness in WSNs \
         (Jiang et al., ICPP 2012)"
  in
  let cmd =
    Cmd.group info
      [
        generate_cmd; schedule_cmd; improve_cmd; trace_cmd; experiment_cmd; tree_cmd;
        energy_cmd; localized_cmd; faults_cmd; serve_cmd; fleet_cmd; request_cmd;
        loadgen_cmd;
      ]
  in
  (* Every command-line error exits 2 (with usage on stderr): an unknown
     flag or subcommand, and a value a converter refuses, which
     cmdliner's own [eval'] would exit 124 for. Domain failures exit 1
     from the commands themselves. *)
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> Cmd.Exit.ok
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
