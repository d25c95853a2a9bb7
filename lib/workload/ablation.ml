module Bitset = Mlbs_util.Bitset
module Tab = Mlbs_util.Tab
module Stats = Mlbs_util.Stats
module Bfs = Mlbs_graph.Bfs
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Interference = Mlbs_phy.Interference
module Model = Mlbs_core.Model
module Emodel = Mlbs_core.Emodel
module Scheduler = Mlbs_core.Scheduler
module Mcounter = Mlbs_core.Mcounter
module Schedule = Mlbs_core.Schedule

let gopt budget model ~source ~start = Scheduler.run model (Scheduler.Gopt budget) ~source ~start

type selector = By_emodel | By_hop_to_source | First_class

let greedy model ~select = Emodel.pipeline ~classes_of:(Model.greedy_classes model) ~select model

let plan_with_selector model sel ~source ~start =
  match sel with
  | By_emodel -> Emodel.plan model ~source ~start
  | First_class -> greedy model ~select:(fun ~w:_ ~classes:_ -> 0) ~source ~start
  | By_hop_to_source ->
      let dist = (Bfs.run (Model.graph model) ~source).Bfs.dist in
      greedy model
        ~select:(fun ~w:_ ~classes -> Emodel.argmax_class (fun u -> dist.(u)) classes)
        ~source ~start

(* Algorithm 1 with ascending-id visiting order (the candidates' own)
   instead of Eq. (2)'s most-receivers-first sort. *)
let plan_with_id_order model =
  let cls = Interference.classifier (Model.phy_instance model) in
  let classes_of ~w ~slot =
    List.map fst
      (Interference.classes cls ~uninformed:(Bitset.complement w) (Model.candidates model ~w ~slot))
  in
  Emodel.pipeline ~classes_of ~select:(fun ~w:_ ~classes:_ -> 0) model

(* --------------------------- tables -------------------------------- *)

(* Per-seed measurements are independent; every table fans them out
   through the experiment pool. Results come back in seed order, so the
   means (and the rendered tables) are identical at any [jobs]. *)
let seed_map cfg f = Mlbs_util.Pool.map_list ~jobs:cfg.Config.jobs f cfg.Config.seeds

let mean_latency cfg ~n ~plan =
  Stats.mean
    (seed_map cfg (fun seed ->
         let inst = Experiment.make_instance cfg ~n ~seed in
         float_of_int (Schedule.elapsed (plan ~seed inst))))

let selector_table cfg ~n =
  let tab =
    Tab.create
      ~title:
        (Printf.sprintf
           "Ablation: class selection, sync, n=%d (mean rounds over %d seeds)" n
           (List.length cfg.Config.seeds))
      [ "strategy"; "latency" ]
  in
  let sync_plan f ~seed:_ (inst : Experiment.instance) =
    let model = Model.create inst.Experiment.net Model.Sync in
    f model ~source:inst.Experiment.source ~start:1
  in
  List.iter
    (fun (label, f) -> Tab.add_float_row tab ~label [ mean_latency cfg ~n ~plan:(sync_plan f) ])
    [
      ("E-model (Eq. 10: to edge)", fun m -> plan_with_selector m By_emodel);
      ("hop distance to source", fun m -> plan_with_selector m By_hop_to_source);
      ("always largest class", fun m -> plan_with_selector m First_class);
      ("id-order coloring", plan_with_id_order);
      ("G-OPT (M search)", gopt cfg.Config.budget);
    ];
  tab

let wake_family_table cfg ~n ~rate =
  let tab =
    Tab.create
      ~title:
        (Printf.sprintf "Ablation: wake-schedule family, r=%d, n=%d (mean slots)" rate n)
      [ "family"; "G-OPT"; "E-model" ]
  in
  List.iter
    (fun (label, family) ->
      let plan_with policy ~seed (inst : Experiment.instance) =
        let sched = Wake_schedule.create ~family ~rate ~n_nodes:n ~seed:(seed * 31) () in
        let model = Model.create inst.Experiment.net (Model.Async sched) in
        policy model ~source:inst.Experiment.source ~start:1
      in
      let g =
        mean_latency cfg ~n ~plan:(plan_with (gopt cfg.Config.budget))
      in
      let e = mean_latency cfg ~n ~plan:(plan_with Emodel.plan) in
      Tab.add_float_row tab ~label [ g; e ])
    [
      ("uniform per frame", Wake_schedule.Uniform_per_frame);
      ("bernoulli", Wake_schedule.Bernoulli);
      ("fixed phase", Wake_schedule.Fixed_phase);
    ];
  tab

let relay_set_table cfg ~n =
  let tab =
    Tab.create
      ~title:
        (Printf.sprintf "Ablation: relay set and layering, sync, n=%d (means over %d seeds)"
           n (List.length cfg.Config.seeds))
      [ "scheme"; "latency"; "transmissions" ]
  in
  let stats plan_of =
    let runs =
      seed_map cfg (fun seed ->
          let inst = Experiment.make_instance cfg ~n ~seed in
          let model = Model.create inst.Experiment.net Model.Sync in
          plan_of model ~source:inst.Experiment.source ~start:1)
    in
    ( Stats.mean (List.map (fun p -> float_of_int (Schedule.elapsed p)) runs),
      Stats.mean (List.map (fun p -> float_of_int (Schedule.n_transmissions p)) runs) )
  in
  List.iter
    (fun (label, plan_of) ->
      let l, tx = stats plan_of in
      Tab.add_float_row tab ~label [ l; tx ])
    [
      ("layered, all relays (26-approx)", Mlbs_core.Baseline26.plan);
      ("layered, CDS backbone [4]", Mlbs_core.Baseline_cds.plan);
      ("pipelined (G-OPT)", gopt cfg.Config.budget);
    ];
  tab

let localized_table cfg ~n ~rate =
  let system_of ~seed =
    match rate with
    | None -> Model.Sync
    | Some r ->
        Model.Async (Wake_schedule.create ~rate:r ~n_nodes:n ~seed:(seed * 17) ())
  in
  let tab =
    Tab.create
      ~title:
        (Printf.sprintf "Ablation: localized protocol vs centralized E-model, %s, n=%d"
           (match rate with None -> "sync" | Some r -> Printf.sprintf "r=%d" r)
           n)
      [ "protocol"; "latency"; "collisions"; "retransmissions" ]
  in
  let runs =
    seed_map cfg (fun seed ->
        let inst = Experiment.make_instance cfg ~n ~seed in
        let model = Model.create inst.Experiment.net (system_of ~seed) in
        let local = Mlbs_proto.Localized.run model ~source:inst.Experiment.source ~start:1 in
        let central =
          Emodel.plan model ~source:inst.Experiment.source ~start:1 |> Schedule.elapsed
        in
        (local, central))
  in
  let meanf f = Stats.mean (List.map f runs) in
  Tab.add_float_row tab ~label:"localized (2-hop views)"
    [
      meanf (fun (l, _) -> float_of_int l.Mlbs_proto.Localized.latency);
      meanf (fun (l, _) -> float_of_int l.Mlbs_proto.Localized.collisions);
      meanf (fun (l, _) -> float_of_int l.Mlbs_proto.Localized.retransmissions);
    ];
  Tab.add_float_row tab ~label:"centralized E-model"
    [ meanf (fun (_, c) -> float_of_int c); 0.; 0. ];
  tab

let shape_table cfg ~n =
  let tab =
    Tab.create
      ~title:
        (Printf.sprintf "Robustness: deployment shapes, sync, n=%d (mean rounds)" n)
      [ "shape"; "26-approx"; "G-OPT"; "E-model" ]
  in
  let module Deployment = Mlbs_wsn.Deployment in
  List.iter
    (fun (label, shape) ->
      let run policy seed =
        let rng = Mlbs_prng.Rng.create (seed * 7919) in
        let spec = { (Deployment.paper_spec ~n_nodes:n) with Deployment.shape } in
        let net = Deployment.generate rng spec in
        let source =
          Deployment.select_source rng net ~min_ecc:cfg.Config.min_ecc
            ~max_ecc:cfg.Config.max_ecc
        in
        let model = Model.create net Model.Sync in
        float_of_int
          (Schedule.elapsed (Scheduler.run model policy ~source ~start:1))
      in
      let mean policy = Stats.mean (seed_map cfg (run policy)) in
      Tab.add_float_row tab ~label
        [
          mean Scheduler.Baseline;
          mean (Scheduler.Gopt cfg.Config.budget);
          mean Scheduler.Emodel;
        ])
    [
      ("uniform (paper)", Deployment.Uniform);
      ("clustered (4 hotspots)", Deployment.Clustered { clusters = 4; spread = 6. });
      ("corridor (12 ft strip)", Deployment.Corridor { breadth = 12. });
      ("jittered grid", Deployment.Grid_jitter { jitter = 2.5 });
    ];
  tab

let protocol_table cfg ~n =
  let tab =
    Tab.create
      ~title:(Printf.sprintf "Protocol comparison, sync, n=%d (means over seeds)" n)
      [ "protocol"; "latency"; "collisions"; "retransmissions"; "coverage" ]
  in
  let insts = seed_map cfg (fun seed -> Experiment.make_instance cfg ~n ~seed) in
  let pmap f xs = Mlbs_util.Pool.map_list ~jobs:cfg.Config.jobs f xs in
  let row label runs =
    let m f = Stats.mean (List.map f runs) in
    Tab.add_float_row tab ~label
      [
        m (fun (l, _, _, _) -> l);
        m (fun (_, c, _, _) -> c);
        m (fun (_, _, r, _) -> r);
        m (fun (_, _, _, cov) -> cov);
      ]
  in
  let flood variant (inst : Experiment.instance) =
    let model = Model.create inst.Experiment.net Model.Sync in
    let r = Mlbs_proto.Flooding.run model variant ~source:inst.Experiment.source ~start:1 in
    ( float_of_int r.Mlbs_proto.Flooding.latency,
      float_of_int r.Mlbs_proto.Flooding.collisions,
      float_of_int r.Mlbs_proto.Flooding.retransmissions,
      float_of_int r.Mlbs_proto.Flooding.informed /. float_of_int n )
  in
  let localized (inst : Experiment.instance) =
    let model = Model.create inst.Experiment.net Model.Sync in
    let r = Mlbs_proto.Localized.run model ~source:inst.Experiment.source ~start:1 in
    ( float_of_int r.Mlbs_proto.Localized.latency,
      float_of_int r.Mlbs_proto.Localized.collisions,
      float_of_int r.Mlbs_proto.Localized.retransmissions,
      1. )
  in
  let distributed (inst : Experiment.instance) =
    let model = Model.create inst.Experiment.net Model.Sync in
    let r =
      Mlbs_proto.Broadcast_protocol.run model ~source:inst.Experiment.source ~start:1
    in
    ( float_of_int r.Mlbs_proto.Broadcast_protocol.latency,
      float_of_int r.Mlbs_proto.Broadcast_protocol.collisions,
      float_of_int r.Mlbs_proto.Broadcast_protocol.retransmissions,
      1. )
  in
  let central policy (inst : Experiment.instance) =
    let model = Model.create inst.Experiment.net Model.Sync in
    let plan = Scheduler.run model policy ~source:inst.Experiment.source ~start:1 in
    (float_of_int (Schedule.elapsed plan), 0., 0., 1.)
  in
  row "blind flooding (once)" (pmap (flood Mlbs_proto.Flooding.Once) insts);
  row "flooding (p = 0.3)" (pmap (flood (Mlbs_proto.Flooding.Persistent 0.3)) insts);
  row "localized (2-hop oracle)" (pmap localized insts);
  row "distributed (beacons only)" (pmap distributed insts);
  row "centralized E-model" (pmap (central Scheduler.Emodel) insts);
  row "centralized G-OPT"
    (pmap (central (Scheduler.Gopt cfg.Config.budget)) insts);
  tab

let resilience_table cfg ~n ~kill_fraction =
  let tab =
    Tab.create
      ~title:
        (Printf.sprintf
           "Failure injection: %.0f%% of nodes crash after scheduling, sync, n=%d \
            (mean surviving coverage)"
           (100. *. kill_fraction) n)
      [ "policy"; "alive nodes reached" ]
  in
  let coverage policy =
    Stats.mean
      (seed_map cfg (fun seed ->
           let inst = Experiment.make_instance cfg ~n ~seed in
           let model = Model.create inst.Experiment.net Model.Sync in
           let plan =
             Scheduler.run model policy ~source:inst.Experiment.source ~start:1
           in
           (* Kill a seeded sample of non-source nodes. *)
           let rng = Mlbs_prng.Rng.create (seed * 31337) in
           let victims =
             Mlbs_prng.Rng.sample rng
               ~k:(int_of_float (kill_fraction *. float_of_int n))
               (List.filter (fun v -> v <> inst.Experiment.source) (List.init n Fun.id))
           in
           let module Fault = Mlbs_sim.Fault in
           let crashes = List.map (fun node -> { Fault.node; at = 0; recover = None }) victims in
           let faults = Fault.make { (Fault.spec Fault.none) with Fault.crashes } in
           let r = Mlbs_sim.Validate.check_under_faults model ~faults plan in
           float_of_int r.Mlbs_sim.Validate.delivered
           /. float_of_int r.Mlbs_sim.Validate.alive))
  in
  List.iter
    (fun (label, policy) -> Tab.add_float_row tab ~label [ coverage policy ])
    [
      ("26-approx (all relays)", Scheduler.Baseline);
      ("G-OPT", Scheduler.Gopt cfg.Config.budget);
      ("E-model", Scheduler.Emodel);
    ];
  tab

let fault_table cfg ~n ~loss =
  let tab =
    Tab.create
      ~title:
        (Printf.sprintf
           "Fault injection: %.0f%% per-link loss%s, sync, n=%d (means over %d seeds)"
           (100. *. loss)
           (if cfg.Config.crash_fraction > 0. then
              Printf.sprintf " + %.0f%% crashes" (100. *. cfg.Config.crash_fraction)
            else "")
           n
           (List.length cfg.Config.seeds))
      [ "policy"; "delivery"; "latency"; "stretch"; "retransmissions"; "energy" ]
  in
  let runs =
    seed_map cfg (fun seed ->
        let inst = Experiment.make_instance cfg ~n ~seed in
        Experiment.run_faulty cfg ~inst_seed:seed ~loss inst)
  in
  (match runs with
  | [] -> ()
  | first :: _ ->
      List.iter
        (fun (m : Experiment.fault_measurement) ->
          let policy = m.Experiment.policy in
          let of_policy run =
            match
              List.find_opt
                (fun (r : Experiment.fault_measurement) -> r.Experiment.policy = policy)
                run
            with
            | Some r -> r
            | None -> invalid_arg "Ablation.fault_table: ragged runs"
          in
          let mean f = Stats.mean (List.map (fun run -> f (of_policy run)) runs) in
          Tab.add_float_row tab ~label:policy
            [
              mean (fun r -> r.Experiment.delivery);
              mean (fun r -> r.Experiment.latency);
              mean (fun r -> r.Experiment.stretch);
              mean (fun r -> float_of_int r.Experiment.retransmissions);
              mean (fun r -> r.Experiment.energy_overhead);
            ])
        first);
  tab

let lookahead_table cfg ~n =
  let tab =
    Tab.create
      ~title:
        (Printf.sprintf
           "Ablation: fallback lookahead depth (exact search disabled), sync, n=%d" n)
      [ "lookahead"; "latency" ]
  in
  List.iter
    (fun depth ->
      let budget = { Mcounter.max_states = 0; lookahead = depth; beam = 4 } in
      let plan ~seed:_ (inst : Experiment.instance) =
        let model = Model.create inst.Experiment.net Model.Sync in
        gopt budget model ~source:inst.Experiment.source ~start:1
      in
      Tab.add_float_row tab ~label:(string_of_int depth) [ mean_latency cfg ~n ~plan ])
    [ 0; 1; 2; 3 ];
  tab

(* ---------------------------- report ------------------------------- *)

(* Fixed sizes and seeds whatever the sweep's node counts and seeds,
   so the smoke, quick and full configs run the same instances. *)
let report cfg =
  let small = { cfg with Config.seeds = [ 1; 2; 3 ] } in
  String.concat "\n"
    (List.map Tab.render
       [
         selector_table small ~n:150;
         wake_family_table small ~n:100 ~rate:10;
         lookahead_table small ~n:150;
         relay_set_table small ~n:150;
         localized_table small ~n:150 ~rate:None;
         localized_table small ~n:100 ~rate:(Some 10);
         shape_table small ~n:150;
         protocol_table small ~n:150;
         resilience_table small ~n:150 ~kill_fraction:0.1;
         fault_table { small with Config.crash_fraction = 0.1 } ~n:100 ~loss:0.2;
       ])
