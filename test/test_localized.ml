module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Localized = Mlbs_proto.Localized
module Validate = Mlbs_sim.Validate
module Fixtures = Mlbs_workload.Fixtures

let test_fig2_sync () =
  let m = Model.create Fixtures.fig2.Fixtures.net Model.Sync in
  let r = Localized.run m ~source:0 ~start:1 in
  Alcotest.(check bool) "covers" true (Schedule.covers_all r.Localized.schedule);
  Alcotest.(check bool) "lossy-valid" true
    (Validate.check_lossy m r.Localized.schedule).Validate.ok;
  (* On the tiny Figure 2 graph the 2-hop views are global: the run
     matches the centralized optimum of 2 rounds with no collisions. *)
  Alcotest.(check int) "latency" 2 r.Localized.latency;
  Alcotest.(check int) "no collisions" 0 r.Localized.collisions;
  Alcotest.(check int) "no retransmissions" 0 r.Localized.retransmissions

let test_fig1_sync () =
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let r = Localized.run m ~source ~start in
  Alcotest.(check bool) "covers" true (Schedule.covers_all r.Localized.schedule);
  Alcotest.(check bool) "lossy-valid" true
    (Validate.check_lossy m r.Localized.schedule).Validate.ok

let test_fig2_async () =
  let fixture, sched = Fixtures.fig2_dc in
  let m = Model.create fixture.Fixtures.net (Model.Async sched) in
  let r = Localized.run m ~source:fixture.Fixtures.source ~start:fixture.Fixtures.start in
  Alcotest.(check bool) "covers" true (Schedule.covers_all r.Localized.schedule);
  Alcotest.(check bool) "lossy-valid" true
    (Validate.check_lossy m r.Localized.schedule).Validate.ok

let test_max_slots_guard () =
  let m = Model.create Fixtures.fig1.Fixtures.net Model.Sync in
  Alcotest.check_raises "livelock guard"
    (Failure "Localized.run: no convergence within 1 slots (protocol livelock?)")
    (fun () -> ignore (Localized.run ~max_slots:1 m ~source:11 ~start:1))

(* The CLI's instances ([mlbs localized -n 150 --seed s]): on these
   seeds divergent 2-hop selections used to deadlock until the slot
   budget ran out; the stall escalation shared with the distributed
   protocol breaks the tie. *)
let test_cli_instance_converges seed () =
  let module Rng = Mlbs_prng.Rng in
  let module Deployment = Mlbs_wsn.Deployment in
  let net = Deployment.generate (Rng.create seed) (Deployment.paper_spec ~n_nodes:150) in
  let source = Deployment.select_source (Rng.create seed) net ~min_ecc:5 ~max_ecc:8 in
  let m = Model.create net Model.Sync in
  let r = Localized.run m ~source ~start:1 in
  Alcotest.(check bool) "covers" true (Schedule.covers_all r.Localized.schedule);
  Alcotest.(check bool) "lossy-valid" true
    (Validate.check_lossy m r.Localized.schedule).Validate.ok

let prop ?(count = 50) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let props =
  [
    prop "localized always converges with full coverage (sync)"
      Test_support.gen_sync_model (fun (model, _) ->
        let r = Localized.run model ~source:0 ~start:1 in
        Schedule.covers_all r.Localized.schedule
        && (Validate.check_lossy model r.Localized.schedule).Validate.ok);
    prop ~count:25 "localized always converges with full coverage (async)"
      Test_support.gen_async_model (fun (model, _) ->
        let r = Localized.run model ~source:0 ~start:1 in
        Schedule.covers_all r.Localized.schedule
        && (Validate.check_lossy model r.Localized.schedule).Validate.ok);
    prop "localized latency is at least the hop lower bound (sync)"
      Test_support.gen_sync_model (fun (model, _) ->
        (* A node informed at slot t relays no earlier than t+1, so each
           hop of the farthest node costs at least one slot. *)
        let d = Mlbs_graph.Bfs.eccentricity (Model.graph model) ~source:0 in
        let r = Localized.run model ~source:0 ~start:1 in
        r.Localized.latency >= d);
    prop "collision-free runs have no retransmissions" Test_support.gen_sync_model
      (fun (model, _) ->
        let r = Localized.run model ~source:0 ~start:1 in
        r.Localized.collisions > 0 || r.Localized.retransmissions = 0);
  ]

let () =
  Alcotest.run "localized"
    [
      ( "unit",
        [
          Alcotest.test_case "fig2 sync" `Quick test_fig2_sync;
          Alcotest.test_case "fig1 sync" `Quick test_fig1_sync;
          Alcotest.test_case "fig2 async" `Quick test_fig2_async;
          Alcotest.test_case "max_slots guard" `Quick test_max_slots_guard;
        ] );
      ( "livelock",
        List.map
          (fun seed ->
            Alcotest.test_case (Printf.sprintf "cli n=150 seed %d converges" seed) `Quick
              (test_cli_instance_converges seed))
          [ 2; 3; 6 ] );
      ("properties", props);
    ]
