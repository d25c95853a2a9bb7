module Point = Mlbs_geom.Point
module Network = Mlbs_wsn.Network
module Graph = Mlbs_graph.Graph
module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Scheduler = Mlbs_core.Scheduler
module Persist = Mlbs_workload.Persist
module Fixtures = Mlbs_workload.Fixtures

let temp suffix =
  let path = Filename.temp_file "mlbs_persist" suffix in
  path

let test_network_roundtrip_geometric () =
  let net = Fixtures.fig2.Fixtures.net in
  let path = temp ".net" in
  Persist.save_network path net;
  let loaded = Persist.load_network path in
  Alcotest.(check int) "n" (Network.n_nodes net) (Network.n_nodes loaded);
  Alcotest.(check (float 1e-12)) "radius" (Network.radius net) (Network.radius loaded);
  Alcotest.(check bool) "positions" true
    (Array.for_all2 Point.equal (Network.positions net) (Network.positions loaded));
  Alcotest.(check (list (pair int int))) "edges"
    (Graph.edges (Network.graph net))
    (Graph.edges (Network.graph loaded));
  Sys.remove path

let test_network_roundtrip_fixture_adjacency () =
  (* fig1's adjacency is NOT the geometric UDG of its coordinates; the
     round trip must preserve the explicit edge set. *)
  let net = Fixtures.fig1.Fixtures.net in
  let path = temp ".net" in
  Persist.save_network path net;
  let loaded = Persist.load_network path in
  Alcotest.(check (list (pair int int))) "edges preserved"
    (Graph.edges (Network.graph net))
    (Graph.edges (Network.graph loaded));
  Sys.remove path

let test_schedule_roundtrip () =
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let plan = Scheduler.run m Scheduler.gopt ~source ~start in
  let path = temp ".sched" in
  Persist.save_schedule path plan;
  let loaded = Persist.load_schedule path in
  Alcotest.(check int) "source" (Schedule.source plan) (Schedule.source loaded);
  Alcotest.(check int) "start" (Schedule.start plan) (Schedule.start loaded);
  Alcotest.(check int) "finish" (Schedule.finish plan) (Schedule.finish loaded);
  List.iter2
    (fun (a : Schedule.step) (b : Schedule.step) ->
      Alcotest.(check int) "slot" a.Schedule.slot b.Schedule.slot;
      Alcotest.(check (list int)) "senders" a.Schedule.senders b.Schedule.senders;
      Alcotest.(check (list int)) "informed" a.Schedule.informed b.Schedule.informed)
    (Schedule.steps plan) (Schedule.steps loaded);
  (* The loaded schedule still validates against the saved network. *)
  Mlbs_sim.Validate.check_exn m loaded;
  Sys.remove path

let write path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let test_bad_headers () =
  let path = temp ".bad" in
  write path "nonsense 9\n";
  Alcotest.check_raises "network header" (Failure "Persist: not a mlbs-network v1 file")
    (fun () -> ignore (Persist.load_network path));
  Alcotest.check_raises "schedule header" (Failure "Persist: not a mlbs-schedule v1 file")
    (fun () -> ignore (Persist.load_schedule path));
  write path "";
  Alcotest.check_raises "empty network" (Failure "Persist: empty network file") (fun () ->
      ignore (Persist.load_network path));
  Sys.remove path

let test_missing_node_detected () =
  let path = temp ".bad" in
  write path "mlbs-network 1 2 10\nnode 0 1 1\n";
  Alcotest.check_raises "missing node" (Failure "Persist: node 1 missing") (fun () ->
      ignore (Persist.load_network path));
  Sys.remove path

let test_duplicate_node_detected () =
  let path = temp ".bad" in
  write path "mlbs-network 1 1 10\nnode 0 1 1\nnode 0 2 2\n";
  Alcotest.check_raises "duplicate" (Failure "Persist: line 3: duplicate node 0")
    (fun () -> ignore (Persist.load_network path));
  Sys.remove path

let test_malformed_step_detected () =
  let path = temp ".bad" in
  write path "mlbs-schedule 1 3 0 1\nstep 1 garbage\n";
  Alcotest.check_raises "bad step" (Failure "Persist: line 2: malformed step record")
    (fun () -> ignore (Persist.load_schedule path));
  Sys.remove path

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:40 ~name gen f)

let props =
  [
    prop "network roundtrip on random deployments" Test_support.gen_sync_model
      (fun (model, seed) ->
        let net = Model.network model in
        let path = temp (Printf.sprintf ".%d" seed) in
        Persist.save_network path net;
        let loaded = Persist.load_network path in
        Sys.remove path;
        Array.for_all2 Point.equal (Network.positions net) (Network.positions loaded)
        && Graph.edges (Network.graph net) = Graph.edges (Network.graph loaded));
    prop "schedule roundtrip preserves radio outcome" Test_support.gen_sync_model
      (fun (model, seed) ->
        let plan = Scheduler.run model Scheduler.gopt ~source:0 ~start:1 in
        let path = temp (Printf.sprintf ".s%d" seed) in
        Persist.save_schedule path plan;
        let loaded = Persist.load_schedule path in
        Sys.remove path;
        (Mlbs_sim.Validate.check model loaded).Mlbs_sim.Validate.ok);
  ]

let () =
  Alcotest.run "persist"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "geometric network" `Quick test_network_roundtrip_geometric;
          Alcotest.test_case "fixture adjacency" `Quick test_network_roundtrip_fixture_adjacency;
          Alcotest.test_case "schedule" `Quick test_schedule_roundtrip;
        ] );
      ( "errors",
        [
          Alcotest.test_case "bad headers" `Quick test_bad_headers;
          Alcotest.test_case "missing node" `Quick test_missing_node_detected;
          Alcotest.test_case "duplicate node" `Quick test_duplicate_node_detected;
          Alcotest.test_case "malformed step" `Quick test_malformed_step_detected;
        ] );
      ("properties", props);
    ]
