module Bitset = Mlbs_util.Bitset
module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Scheduler = Mlbs_core.Scheduler
module Broadcast_tree = Mlbs_core.Broadcast_tree
module Energy = Mlbs_sim.Energy
module Validate = Mlbs_sim.Validate
module Fixtures = Mlbs_workload.Fixtures

let feq = Alcotest.float 1e-9

(* ----------------------- broadcast tree ---------------------------- *)

let fig1_tree () =
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let model = Model.create net Model.Sync in
  let plan = Scheduler.run model Scheduler.gopt ~source ~start in
  (model, plan, Broadcast_tree.of_schedule model plan)

let test_tree_fig1 () =
  let _, plan, tree = fig1_tree () in
  Alcotest.(check (option int)) "source has no parent" None (Broadcast_tree.parent tree 11);
  (* The optimal Figure 1(c) tree: s -> {0,1,2}; 1 -> {3,4,10};
     0 -> {5,6,7}; 4 -> {8,9}. *)
  Alcotest.(check (list int)) "s's children" [ 0; 1; 2 ] (Broadcast_tree.children tree 11);
  Alcotest.(check (list int)) "1's children" [ 3; 4; 10 ] (Broadcast_tree.children tree 1);
  Alcotest.(check (list int)) "0's children" [ 5; 6; 7 ] (Broadcast_tree.children tree 0);
  Alcotest.(check (list int)) "4's children" [ 8; 9 ] (Broadcast_tree.children tree 4);
  Alcotest.(check int) "height" 3 (Broadcast_tree.height tree);
  Alcotest.(check (list int)) "relays" [ 0; 1; 4; 11 ] (Broadcast_tree.relays tree);
  Alcotest.(check int) "node 8 informed at the finish slot"
    (Schedule.finish plan)
    (Broadcast_tree.informed_slot tree 8);
  Alcotest.(check int) "source slot" 1 (Broadcast_tree.informed_slot tree 11)

let test_tree_depth_consistent_with_slots () =
  let _, _, tree = fig1_tree () in
  (* Along any root path, reception slots strictly increase. *)
  for v = 0 to 10 do
    match Broadcast_tree.parent tree v with
    | None -> ()
    | Some p ->
        Alcotest.(check bool)
          (Printf.sprintf "slot(%d) > slot(parent %d)" v p)
          true
          (Broadcast_tree.informed_slot tree v > Broadcast_tree.informed_slot tree p
          || p = 11)
  done

let test_tree_edges_are_graph_edges () =
  let model, _, tree = fig1_tree () in
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) "tree edge in graph" true
        (Mlbs_graph.Graph.mem_edge (Model.graph model) u v))
    (Broadcast_tree.directed_edges tree);
  Alcotest.(check int) "n-1 edges" 11 (List.length (Broadcast_tree.directed_edges tree))

let test_tree_rejects_incomplete () =
  let model = Model.create Fixtures.fig2.Fixtures.net Model.Sync in
  let partial =
    Schedule.make ~n_nodes:5 ~source:0 ~start:1
      [ { Schedule.slot = 1; senders = [ 0 ]; informed = [ 1; 2 ] } ]
  in
  Alcotest.check_raises "incomplete"
    (Invalid_argument "Broadcast_tree.of_schedule: schedule does not inform every node")
    (fun () -> ignore (Broadcast_tree.of_schedule model partial))

let test_tree_rejects_collision () =
  let model = Model.create Fixtures.fig2.Fixtures.net Model.Sync in
  let bad =
    Schedule.make ~n_nodes:5 ~source:0 ~start:1
      [
        { Schedule.slot = 1; senders = [ 0 ]; informed = [ 1; 2 ] };
        { Schedule.slot = 2; senders = [ 1; 2 ]; informed = [ 3; 4 ] };
      ]
  in
  Alcotest.check_raises "collision"
    (Invalid_argument "Broadcast_tree.of_schedule: collision at node 3") (fun () ->
      ignore (Broadcast_tree.of_schedule model bad))

(* --------------------------- energy --------------------------------- *)

let test_energy_fig1 () =
  let model, plan, _ = fig1_tree () in
  let r = Energy.charge model plan in
  (* 5 transmissions (s; 1; 0,4 — wait: s,1,0,4 = 4 relays) and 11
     receptions over 3 slots for 12 nodes. *)
  Alcotest.check feq "tx = 4 relays x 20" 80. r.Energy.tx_energy;
  Alcotest.check feq "rx = 11 receptions x 5" 55. r.Energy.rx_energy;
  Alcotest.check feq "idle = 12 nodes x 3 slots x 0.1" 3.6 r.Energy.idle_energy;
  Alcotest.check feq "total" (80. +. 55. +. 3.6) r.Energy.total;
  (* The source pays one tx plus idle. *)
  Alcotest.check feq "source share" (20. +. 0.3) r.Energy.per_node.(11)

let test_energy_custom_prices () =
  let model, plan, _ = fig1_tree () in
  let prices = { Energy.tx = 1.; rx = 0.; idle_per_slot = 0. } in
  let r = Energy.charge ~prices model plan in
  Alcotest.check feq "counts transmissions" 4. r.Energy.total

let test_energy_collision_receivers_pay_nothing () =
  let model = Model.create Fixtures.fig2.Fixtures.net Model.Sync in
  let bad =
    Schedule.make ~n_nodes:5 ~source:0 ~start:1
      [
        { Schedule.slot = 1; senders = [ 0 ]; informed = [ 1; 2 ] };
        { Schedule.slot = 2; senders = [ 1; 2 ]; informed = [ 4 ] };
      ]
  in
  let prices = { Energy.tx = 0.; rx = 1.; idle_per_slot = 0. } in
  let r = Energy.charge ~prices model bad in
  (* Receptions: 1, 2 (slot 1) and 4 (slot 2); node 3 collided. *)
  Alcotest.check feq "3 receptions" 3. r.Energy.rx_energy;
  Alcotest.check feq "collided node pays nothing" 0. r.Energy.per_node.(3)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:60 ~name gen f)

let props =
  [
    prop "tree spans exactly the network (sync G-OPT)" Test_support.gen_sync_model
      (fun (model, _) ->
        let plan = Scheduler.run model Scheduler.gopt ~source:0 ~start:1 in
        let tree = Broadcast_tree.of_schedule model plan in
        List.length (Broadcast_tree.directed_edges tree) = Model.n_nodes model - 1);
    prop "tree height >= source eccentricity-0 lower bound is latency"
      Test_support.gen_sync_model (fun (model, _) ->
        let plan = Scheduler.run model Scheduler.gopt ~source:0 ~start:1 in
        let tree = Broadcast_tree.of_schedule model plan in
        (* Each tree level costs at least one slot. *)
        Broadcast_tree.height tree <= Schedule.elapsed plan);
    prop "energy components sum to total" Test_support.gen_sync_model
      (fun (model, _) ->
        let plan = Scheduler.run model Scheduler.gopt ~source:0 ~start:1 in
        let r = Energy.charge model plan in
        abs_float (r.Energy.total -. (r.Energy.tx_energy +. r.Energy.rx_energy +. r.Energy.idle_energy))
        < 1e-6
        && abs_float (Array.fold_left ( +. ) 0. r.Energy.per_node -. r.Energy.total) < 1e-6);
  ]

let () =
  Alcotest.run "tree_energy"
    [
      ( "broadcast tree",
        [
          Alcotest.test_case "fig1 structure" `Quick test_tree_fig1;
          Alcotest.test_case "slots increase along paths" `Quick
            test_tree_depth_consistent_with_slots;
          Alcotest.test_case "edges are graph edges" `Quick test_tree_edges_are_graph_edges;
          Alcotest.test_case "rejects incomplete" `Quick test_tree_rejects_incomplete;
          Alcotest.test_case "rejects collision" `Quick test_tree_rejects_collision;
        ] );
      ( "energy",
        [
          Alcotest.test_case "fig1 accounting" `Quick test_energy_fig1;
          Alcotest.test_case "custom prices" `Quick test_energy_custom_prices;
          Alcotest.test_case "collisions pay nothing" `Quick
            test_energy_collision_receivers_pay_nothing;
        ] );
      ("properties", props);
    ]
