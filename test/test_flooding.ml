module Bitset = Mlbs_util.Bitset
module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Flooding = Mlbs_proto.Flooding
module Validate = Mlbs_sim.Validate
module Fixtures = Mlbs_workload.Fixtures

(* Figure 2's graph makes blind flooding fail deterministically: after
   the source informs nodes 2 and 3 (ids 1, 2), both relay in the same
   round and collide at node 4 (id 3), which is then stranded — its only
   neighbours have already spent their single transmission. The classic
   broadcast storm of [17]. *)
let test_once_storm_fig2 () =
  let m = Model.create Fixtures.fig2.Fixtures.net Model.Sync in
  let r = Flooding.run m Flooding.Once ~source:0 ~start:1 in
  Alcotest.(check bool) "not covered" false r.Flooding.covered;
  Alcotest.(check int) "node 4 stranded" 4 r.Flooding.informed;
  Alcotest.(check int) "one collision" 1 r.Flooding.collisions;
  Alcotest.(check int) "no retransmissions in Once" 0 r.Flooding.retransmissions

let test_persistent_recovers_fig2 () =
  let m = Model.create Fixtures.fig2.Fixtures.net Model.Sync in
  let r = Flooding.run m (Flooding.Persistent 0.5) ~source:0 ~start:1 in
  Alcotest.(check bool) "covered" true r.Flooding.covered;
  Alcotest.(check int) "all informed" 5 r.Flooding.informed;
  Alcotest.(check bool) "lossy-valid" true
    (Validate.check_lossy m r.Flooding.schedule).Validate.ok

let test_once_line_graph_works () =
  (* On a path there are no common neighbours, so Once-flooding covers
     without a single collision. *)
  let points = Array.init 5 (fun i -> Mlbs_geom.Point.v (float_of_int i *. 8.) 0.) in
  let net = Mlbs_wsn.Network.create ~radius:10. points in
  let m = Model.create net Model.Sync in
  let r = Flooding.run m Flooding.Once ~source:0 ~start:1 in
  Alcotest.(check bool) "covered" true r.Flooding.covered;
  Alcotest.(check int) "collisions" 0 r.Flooding.collisions;
  Alcotest.(check int) "latency = diameter" 4 r.Flooding.latency

let test_persistence_validated () =
  let m = Model.create Fixtures.fig2.Fixtures.net Model.Sync in
  Alcotest.check_raises "p = 0" (Invalid_argument "Flooding.run: persistence outside (0, 1]")
    (fun () -> ignore (Flooding.run m (Flooding.Persistent 0.) ~source:0 ~start:1));
  Alcotest.check_raises "p > 1" (Invalid_argument "Flooding.run: persistence outside (0, 1]")
    (fun () -> ignore (Flooding.run m (Flooding.Persistent 1.5) ~source:0 ~start:1))

let test_max_slots_stops () =
  let { Fixtures.net; source; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let r = Flooding.run ~max_slots:1 m (Flooding.Persistent 0.9) ~source ~start:1 in
  Alcotest.(check bool) "gave up, no exception" true (not r.Flooding.covered)

let prop ?(count = 50) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let props =
  [
    prop "persistent flooding always covers (sync)" Test_support.gen_sync_model
      (fun (model, _) ->
        let r = Flooding.run model (Flooding.Persistent 0.4) ~source:0 ~start:1 in
        r.Flooding.covered
        && (Validate.check_lossy model r.Flooding.schedule).Validate.ok);
    prop "Once sends each node at most once" Test_support.gen_sync_model
      (fun (model, _) ->
        let r = Flooding.run model Flooding.Once ~source:0 ~start:1 in
        let sends = Hashtbl.create 16 in
        List.iter
          (fun s ->
            List.iter
              (fun u ->
                Hashtbl.replace sends u (1 + Option.value ~default:0 (Hashtbl.find_opt sends u)))
              s.Schedule.senders)
          (Schedule.steps r.Flooding.schedule);
        Hashtbl.fold (fun _ k acc -> acc && k = 1) sends true);
    prop "informed count is honest" Test_support.gen_sync_model (fun (model, _) ->
        let r = Flooding.run model Flooding.Once ~source:0 ~start:1 in
        let outcome = Mlbs_sim.Radio.replay ~allow_resend:true model r.Flooding.schedule in
        Bitset.cardinal outcome.Mlbs_sim.Radio.informed = r.Flooding.informed);
    prop ~count:25 "persistent flooding covers under duty cycling"
      Test_support.gen_async_model (fun (model, _) ->
        let r = Flooding.run model (Flooding.Persistent 0.5) ~source:0 ~start:1 in
        r.Flooding.covered);
  ]

let () =
  Alcotest.run "flooding"
    [
      ( "unit",
        [
          Alcotest.test_case "storm on fig2" `Quick test_once_storm_fig2;
          Alcotest.test_case "persistent recovers" `Quick test_persistent_recovers_fig2;
          Alcotest.test_case "line graph" `Quick test_once_line_graph_works;
          Alcotest.test_case "persistence bounds" `Quick test_persistence_validated;
          Alcotest.test_case "max slots" `Quick test_max_slots_stops;
        ] );
      ("properties", props);
    ]
