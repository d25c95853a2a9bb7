module Bitset = Mlbs_util.Bitset
module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Scheduler = Mlbs_core.Scheduler
module Fault = Mlbs_sim.Fault
module Radio = Mlbs_sim.Radio
module Validate = Mlbs_sim.Validate
module Hello = Mlbs_proto.Hello
module E_protocol = Mlbs_proto.E_protocol
module Broadcast_protocol = Mlbs_proto.Broadcast_protocol
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Fixtures = Mlbs_workload.Fixtures

let plain ?(crashes = []) ?(jitter = 0) ?(seed = 7) loss =
  Fault.make { Fault.loss; crashes; wake_jitter = jitter; seed }

let bernoulli ?crashes ?jitter ?seed p = plain ?crashes ?jitter ?seed (Fault.Bernoulli p)

let fig2_model () = Model.create Fixtures.fig2.Fixtures.net Model.Sync

(* ------------------------- the plan itself ------------------------- *)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_make_validation () =
  Alcotest.(check bool) "loss > 1 rejected" true
    (raises_invalid (fun () -> bernoulli 1.5));
  Alcotest.(check bool) "negative loss rejected" true
    (raises_invalid (fun () -> bernoulli (-0.1)));
  Alcotest.(check bool) "negative jitter rejected" true
    (raises_invalid (fun () -> bernoulli ~jitter:(-1) 0.1));
  Alcotest.(check bool) "recover <= at rejected" true
    (raises_invalid (fun () ->
         bernoulli ~crashes:[ { Fault.node = 1; at = 5; recover = Some 5 } ] 0.))

let test_noop_recognition () =
  Alcotest.(check bool) "none" true (Fault.is_noop Fault.none);
  Alcotest.(check bool) "Bernoulli 0" true (Fault.is_noop (bernoulli 0.));
  Alcotest.(check bool) "Bernoulli 0.1" false (Fault.is_noop (bernoulli 0.1));
  Alcotest.(check bool) "a crash" false
    (Fault.is_noop
       (bernoulli ~crashes:[ { Fault.node = 0; at = 1; recover = None } ] 0.));
  Alcotest.(check bool) "jitter" false (Fault.is_noop (bernoulli ~jitter:1 0.))

let test_crash_windows () =
  let f =
    bernoulli
      ~crashes:
        [
          { Fault.node = 2; at = 5; recover = Some 9 };
          { Fault.node = 3; at = 4; recover = None };
        ]
      0.
  in
  Alcotest.(check bool) "alive before" true (Fault.alive f ~slot:4 2);
  Alcotest.(check bool) "dead at crash slot" false (Fault.alive f ~slot:5 2);
  Alcotest.(check bool) "dead mid-window" false (Fault.alive f ~slot:8 2);
  Alcotest.(check bool) "recovered" true (Fault.alive f ~slot:9 2);
  Alcotest.(check bool) "end state sees recovery" true (Fault.alive f ~slot:max_int 2);
  Alcotest.(check bool) "no recovery: dead forever" false (Fault.alive f ~slot:max_int 3);
  Alcotest.(check bool) "unnamed node untouched" true (Fault.alive f ~slot:max_int 0)

let ge = Fault.Gilbert_elliott { p_gb = 0.3; p_bg = 0.4; loss_good = 0.05; loss_bad = 0.8 }

let grid =
  List.concat_map
    (fun slot ->
      List.concat_map
        (fun tx -> List.filter_map (fun rx -> if tx = rx then None else Some (slot, tx, rx)) [ 0; 1; 2; 3; 4 ])
        [ 0; 1; 2; 3; 4 ])
    [ 1; 2; 3; 5; 8; 13; 21 ]

let test_delivers_order_independent () =
  (* The Gilbert–Elliott chain memoises per-link state lazily; querying
     two fresh plans (same spec) in opposite orders must agree. *)
  let ask f (slot, tx, rx) = Fault.delivers ~slot ~tx ~rx f in
  let forward = List.map (ask (plain ge)) grid in
  let backward = List.rev (List.map (ask (plain ge)) (List.rev grid)) in
  Alcotest.(check (list bool)) "same answers" forward backward

let test_rolls_coupled_across_rates () =
  (* Same seed: any packet that survives Bernoulli 0.4 also survives
     Bernoulli 0.1 — the coupling behind the monotonicity property. *)
  let hi = bernoulli 0.4 and lo = bernoulli 0.1 in
  List.iter
    (fun (slot, tx, rx) ->
      if Fault.delivers ~slot ~tx ~rx hi then
        Alcotest.(check bool)
          (Printf.sprintf "slot %d %d->%d survives the lower rate" slot tx rx)
          true
          (Fault.delivers ~slot ~tx ~rx lo))
    grid

let test_channels_decorrelated () =
  (* Data, beacon and E-construction rolls must differ somewhere. *)
  let f = bernoulli 0.5 in
  let differs =
    List.exists
      (fun (slot, tx, rx) ->
        Fault.delivers ~slot ~tx ~rx f
        <> Fault.delivers ~channel:1 ~slot ~tx ~rx f)
      grid
  in
  Alcotest.(check bool) "channel 0 and 1 decorrelated" true differs

let test_sample_crashes () =
  let none =
    Fault.sample_crashes ~n_nodes:20 ~fraction:0. ~window:(1, 10) ~seed:3 ()
  in
  Alcotest.(check int) "fraction 0 kills nobody" 0 (List.length none);
  let all =
    Fault.sample_crashes ~n_nodes:20 ~fraction:1. ~window:(1, 10) ~avoid:[ 0; 7 ] ~seed:3 ()
  in
  Alcotest.(check int) "fraction 1 kills all but avoided" 18 (List.length all);
  List.iter
    (fun { Fault.node; at; recover } ->
      Alcotest.(check bool) "avoided spared" true (node <> 0 && node <> 7);
      Alcotest.(check bool) "slot in window" true (at >= 1 && at <= 10);
      Alcotest.(check bool) "no recovery" true (recover = None))
    all;
  let again =
    Fault.sample_crashes ~n_nodes:20 ~fraction:1. ~window:(1, 10) ~avoid:[ 0; 7 ] ~seed:3 ()
  in
  Alcotest.(check bool) "deterministic in the seed" true (all = again)

let test_zero_jitter_is_identity () =
  let sched = Wake_schedule.create ~rate:5 ~n_nodes:4 ~seed:2 () in
  Alcotest.(check bool) "physically unchanged" true
    (Fault.jittered (bernoulli 0.3) sched == sched)

(* ------------------- replay + validator under faults ---------------- *)

let test_noop_replay_identity () =
  let m = fig2_model () in
  let s =
    Schedule.make ~n_nodes:5 ~source:0 ~start:1
      [
        { Schedule.slot = 1; senders = [ 0 ]; informed = [ 1; 2 ] };
        { Schedule.slot = 2; senders = [ 1 ]; informed = [ 3; 4 ] };
      ]
  in
  let without = Radio.replay m s in
  let with_noop = Radio.replay ~faults:(bernoulli 0.) m s in
  Alcotest.(check (list int)) "same informed"
    (Bitset.elements without.Radio.informed)
    (Bitset.elements with_noop.Radio.informed);
  Alcotest.(check (list string)) "same violations" without.Radio.violations
    with_noop.Radio.violations;
  Alcotest.(check int) "nothing lost" 0 (List.length with_noop.Radio.lost);
  Alcotest.(check int) "nothing dropped" 0 (List.length with_noop.Radio.dropped)

let test_check_under_faults_noop_full_coverage () =
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let sched = Scheduler.run m Scheduler.gopt ~source ~start in
  let r = Validate.check_under_faults m ~faults:Fault.none sched in
  Alcotest.(check bool) "ok" true r.Validate.ok;
  Alcotest.(check int) "all delivered" 12 r.Validate.delivered;
  Alcotest.(check int) "all alive" 12 r.Validate.alive;
  Alcotest.(check int) "nothing lost" 0 r.Validate.lost

(* --------------------- protocol under the plan ---------------------- *)

let steps_equal a b = Schedule.steps a = Schedule.steps b

let test_protocol_noop_identity () =
  let m = fig2_model () in
  let clean = Broadcast_protocol.run m ~source:0 ~start:1 in
  let noop = Broadcast_protocol.run ~faults:(bernoulli 0.) m ~source:0 ~start:1 in
  Alcotest.(check bool) "same schedule" true
    (steps_equal clean.Broadcast_protocol.schedule noop.Broadcast_protocol.schedule);
  Alcotest.(check int) "same latency" clean.Broadcast_protocol.latency
    noop.Broadcast_protocol.latency;
  Alcotest.(check int) "same beacons" clean.Broadcast_protocol.beacon_messages
    noop.Broadcast_protocol.beacon_messages;
  Alcotest.(check int) "same retransmissions" clean.Broadcast_protocol.retransmissions
    noop.Broadcast_protocol.retransmissions;
  Alcotest.(check int) "everyone delivered" 5 noop.Broadcast_protocol.delivered;
  Alcotest.(check int) "nobody gave up" 0 noop.Broadcast_protocol.gave_up;
  Alcotest.(check int) "nothing lost" 0 noop.Broadcast_protocol.lost_packets

let test_source_crash () =
  (* The source dies before its first slot and never recovers: no node
     can ever hold the message, so the run must end by give-up with only
     the (dead) source informed — delivered counts alive nodes only. *)
  let m = fig2_model () in
  let faults = bernoulli ~crashes:[ { Fault.node = 0; at = 1; recover = None } ] 0. in
  let r = Broadcast_protocol.run ~faults m ~source:0 ~start:1 in
  Alcotest.(check int) "nobody alive delivered" 0 r.Broadcast_protocol.delivered;
  Alcotest.(check int) "no data ever sent" 0
    (Schedule.n_transmissions r.Broadcast_protocol.schedule)

let test_partition () =
  (* fig2 edges: 0-1, 0-2, 1-3, 2-3, 1-4. Killing 1 and 2 forever cuts
     {3, 4} off from the source; the protocol must terminate gracefully
     with exactly the source delivered among the three survivors. *)
  let m = fig2_model () in
  let faults =
    bernoulli
      ~crashes:
        [
          { Fault.node = 1; at = 1; recover = None };
          { Fault.node = 2; at = 1; recover = None };
        ]
      0.
  in
  let r = Broadcast_protocol.run ~faults m ~source:0 ~start:1 in
  Alcotest.(check int) "only the source delivered" 1 r.Broadcast_protocol.delivered;
  Alcotest.(check int) "the stuck holder gave up" 1 r.Broadcast_protocol.gave_up

let test_crash_recovery_amnesia () =
  (* Node 1 crashes, then rejoins with amnesia: its beacons advertise
     "not holding" again, which pulls a neighbour back into the greedy
     re-coloring (the lagged-relay path) until everyone is covered. *)
  let m = fig2_model () in
  let faults = bernoulli ~crashes:[ { Fault.node = 1; at = 2; recover = Some 40 } ] 0. in
  let r = Broadcast_protocol.run ~faults m ~source:0 ~start:1 in
  Alcotest.(check int) "everyone delivered in the end" 5 r.Broadcast_protocol.delivered;
  Alcotest.(check int) "nobody gave up" 0 r.Broadcast_protocol.gave_up

let test_retry_budget_bounds_transmissions () =
  (* Total loss: nothing ever delivers, so every holder (only the
     source) burns through its budget and gives up; each node appears
     at most max_attempts times among the data senders. *)
  let m = fig2_model () in
  let faults = bernoulli 1.0 in
  let r = Broadcast_protocol.run ~faults ~max_attempts:3 m ~source:0 ~start:1 in
  let sends = Hashtbl.create 8 in
  List.iter
    (fun s ->
      List.iter
        (fun u ->
          Hashtbl.replace sends u (1 + Option.value ~default:0 (Hashtbl.find_opt sends u)))
        s.Schedule.senders)
    (Schedule.steps r.Broadcast_protocol.schedule);
  Hashtbl.iter
    (fun u k ->
      Alcotest.(check bool) (Printf.sprintf "node %d within budget" u) true (k <= 3))
    sends;
  Alcotest.(check int) "only the source delivered" 1 r.Broadcast_protocol.delivered;
  Alcotest.(check bool) "somebody gave up" true (r.Broadcast_protocol.gave_up >= 1)

let test_protocol_schedule_audits_clean_under_loss () =
  (* The transmissions the protocol actually made must replay to the
     same story under the same plan: every reception conflict-free
     under the fault trace. *)
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let faults = bernoulli 0.2 in
  let r = Broadcast_protocol.run ~faults m ~source ~start in
  let audit =
    Validate.check_under_faults ~allow_resend:true m ~faults r.Broadcast_protocol.schedule
  in
  Alcotest.(check (list string)) "no violations" [] audit.Validate.violations;
  Alcotest.(check int) "replay agrees on delivery" r.Broadcast_protocol.delivered
    audit.Validate.delivered

(* -------------------- E construction under loss --------------------- *)

let test_e_protocol_under_loss () =
  let { Fixtures.net; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let views = (Hello.discover net).Hello.views in
  let clean = E_protocol.construct m views in
  let lossy = E_protocol.construct ~faults:(bernoulli 0.3) m views in
  Alcotest.(check bool) "same fixpoint" true
    (clean.E_protocol.values = lossy.E_protocol.values);
  Alcotest.(check bool) "loss costs messages" true
    (lossy.E_protocol.messages >= clean.E_protocol.messages);
  Alcotest.(check bool) "retries happened" true (lossy.E_protocol.retransmissions > 0);
  Alcotest.(check int) "clean run retries nothing" 0 clean.E_protocol.retransmissions

(* --------------------------- properties ----------------------------- *)

let prop ?(count = 40) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let props =
  [
    prop "delivery monotone non-increasing in loss rate"
      QCheck2.Gen.(
        triple Test_support.gen_sync_model (float_range 0. 0.5) (float_range 0. 0.5))
      (fun ((model, seed), p1, p2) ->
        let lo = min p1 p2 and hi = max p1 p2 in
        let sched = Scheduler.run model Scheduler.Baseline ~source:0 ~start:1 in
        let delivered p =
          (Validate.check_under_faults model ~faults:(bernoulli ~seed p) sched)
            .Validate.delivered
        in
        delivered hi <= delivered lo);
    prop ~count:20 "replay under a plan never mints violations on valid schedules"
      QCheck2.Gen.(pair Test_support.gen_sync_model (float_range 0. 0.4))
      (fun ((model, seed), p) ->
        let sched = Scheduler.run model Scheduler.Baseline ~source:0 ~start:1 in
        let r = Validate.check_under_faults model ~faults:(bernoulli ~seed p) sched in
        r.Validate.ok && r.Validate.delivered <= r.Validate.alive);
    prop ~count:15 "protocol terminates and audits clean under loss"
      QCheck2.Gen.(pair Test_support.gen_sync_model (float_range 0. 0.3))
      (fun ((model, seed), p) ->
        let faults = bernoulli ~seed p in
        let r = Broadcast_protocol.run ~faults model ~source:0 ~start:1 in
        let audit =
          Validate.check_under_faults ~allow_resend:true model ~faults
            r.Broadcast_protocol.schedule
        in
        audit.Validate.violations = []
        && r.Broadcast_protocol.delivered >= 1
        && r.Broadcast_protocol.delivered <= Model.n_nodes model);
  ]

(* The fault sweep mirrors its returned measurements into the metrics
   registry; the two accountings must agree exactly. *)
let test_run_faulty_matches_registry () =
  let module Experiment = Mlbs_workload.Experiment in
  let module Obs = Mlbs_obs.Obs in
  let module Metrics = Mlbs_obs.Metrics in
  Obs.enable ~metrics:true ~tracing:false ();
  Metrics.reset ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let cfg = Mlbs_workload.Config.smoke in
      let inst = Experiment.make_instance cfg ~n:50 ~seed:1 in
      let ms = Experiment.run_faulty cfg ~inst_seed:1 ~loss:0.2 inst in
      let retx =
        List.fold_left
          (fun acc (m : Experiment.fault_measurement) -> acc + m.Experiment.retransmissions)
          0 ms
      in
      let energy_pm =
        List.fold_left
          (fun acc (m : Experiment.fault_measurement) ->
            acc + int_of_float (m.Experiment.energy_overhead *. 1000.))
          0 ms
      in
      Alcotest.(check int)
        "retransmissions mirrored" retx
        (Metrics.counter_value "experiment/fault_retransmissions");
      Alcotest.(check int)
        "energy overhead mirrored (per-mille)" energy_pm
        (Metrics.counter_value "experiment/fault_energy_pm");
      (* The protocol measurement's retransmissions also flow through the
         protocol's own counter (one clean + one faulty run recorded). *)
      let proto_retx =
        match List.find_opt (fun (m : Experiment.fault_measurement) -> m.Experiment.policy = "protocol") ms with
        | Some m -> m.Experiment.retransmissions
        | None -> Alcotest.fail "protocol measurement missing"
      in
      Alcotest.(check bool)
        "registry proto/retransmissions covers the faulty run" true
        (Metrics.counter_value "proto/retransmissions" >= proto_retx))

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "spec validation" `Quick test_make_validation;
          Alcotest.test_case "no-op recognition" `Quick test_noop_recognition;
          Alcotest.test_case "crash windows" `Quick test_crash_windows;
          Alcotest.test_case "order independence" `Quick test_delivers_order_independent;
          Alcotest.test_case "rolls coupled across rates" `Quick test_rolls_coupled_across_rates;
          Alcotest.test_case "channels decorrelated" `Quick test_channels_decorrelated;
          Alcotest.test_case "sample_crashes" `Quick test_sample_crashes;
          Alcotest.test_case "zero jitter is identity" `Quick test_zero_jitter_is_identity;
        ] );
      ( "replay",
        [
          Alcotest.test_case "no-op identity" `Quick test_noop_replay_identity;
          Alcotest.test_case "validator full coverage at no-op" `Quick
            test_check_under_faults_noop_full_coverage;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "no-op identity" `Quick test_protocol_noop_identity;
          Alcotest.test_case "source crash" `Quick test_source_crash;
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "crash + amnesiac recovery" `Quick test_crash_recovery_amnesia;
          Alcotest.test_case "retry budget bounds sends" `Quick
            test_retry_budget_bounds_transmissions;
          Alcotest.test_case "audit clean under loss" `Quick
            test_protocol_schedule_audits_clean_under_loss;
        ] );
      ("E construction", [ Alcotest.test_case "loss tolerated" `Quick test_e_protocol_under_loss ]);
      ( "telemetry",
        [
          Alcotest.test_case "run_faulty mirrors the registry" `Quick
            test_run_faulty_matches_registry;
        ] );
      ("properties", props);
    ]
