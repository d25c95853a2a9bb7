(* Cross-module edge cases: word boundaries, degenerate networks,
   single-node broadcasts, and consistency between the CWT helper and
   the wake-schedule forecasts. *)

module Bitset = Mlbs_util.Bitset
module Point = Mlbs_geom.Point
module Network = Mlbs_wsn.Network
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Cwt = Mlbs_dutycycle.Cwt
module Model = Mlbs_core.Model
module Istate = Mlbs_core.Istate
module Schedule = Mlbs_core.Schedule
module Scheduler = Mlbs_core.Scheduler
module Emodel = Mlbs_core.Emodel
module Validate = Mlbs_sim.Validate

(* ---------------------- bitset word seams --------------------------- *)

let test_bitset_word_boundaries () =
  (* 63 bits per word: exercise capacities and members at the seams. *)
  List.iter
    (fun cap ->
      let s = Bitset.full cap in
      Alcotest.(check int) (Printf.sprintf "full cardinal %d" cap) cap (Bitset.cardinal s);
      Alcotest.(check bool) "is_full" true (Bitset.is_full s);
      let c = Bitset.complement s in
      Alcotest.(check bool) "complement empty" true (Bitset.is_empty c);
      if cap > 0 then begin
        Bitset.remove s (cap - 1);
        Alcotest.(check bool) "not full after removing top bit" false (Bitset.is_full s)
      end)
    [ 1; 62; 63; 64; 125; 126; 127; 189 ]

let test_bitset_hash_distinguishes_capacity () =
  let a = Bitset.of_list 63 [ 5 ] and b = Bitset.of_list 64 [ 5 ] in
  Alcotest.(check bool) "different capacity not equal" false (Bitset.equal a b)

(* ---------------------- degenerate networks ------------------------- *)

let two_node_model () =
  let net = Network.create ~radius:10. [| Point.v 0. 0.; Point.v 5. 0. |] in
  Model.create net Model.Sync

let test_two_node_broadcast () =
  let m = two_node_model () in
  List.iter
    (fun policy ->
      let plan = Scheduler.run m policy ~source:0 ~start:1 in
      Alcotest.(check int)
        (Scheduler.name ~system:Model.Sync policy ^ " one round")
        1 (Schedule.elapsed plan);
      Validate.check_exn m plan)
    Scheduler.all_policies

let test_two_node_emodel_values () =
  (* Each node is on the hull with three empty quadrants; every E value
     is 0 or 1. *)
  let m = two_node_model () in
  let e = Emodel.compute m in
  List.iter
    (fun u ->
      List.iter
        (fun q ->
          let v = Emodel.value e ~node:u q in
          Alcotest.(check bool) "0 or 1" true (v = 0 || v = 1))
        Mlbs_geom.Quadrant.all)
    [ 0; 1 ]

let test_collinear_network_boundary () =
  (* A straight line: the hull is degenerate; the E-model must still
     terminate with finite values (phase B seeds the interior). *)
  let points = Array.init 7 (fun i -> Point.v (float_of_int i *. 7.) 0.) in
  let net = Network.create ~radius:10. points in
  let m = Model.create net Model.Sync in
  let e = Emodel.compute m in
  List.iter
    (fun u ->
      List.iter
        (fun q ->
          Alcotest.(check bool) "finite" true (Emodel.value e ~node:u q < max_int))
        Mlbs_geom.Quadrant.all)
    (List.init 7 Fun.id);
  let plan = Emodel.plan m ~source:3 ~start:1 in
  Validate.check_exn m plan;
  (* From the middle of a 7-node line the farthest node is 3 hops; pipelining
     both directions cannot beat max-distance. *)
  Alcotest.(check bool) "at least 3 rounds" true (Schedule.elapsed plan >= 3)

(* ----------------------- cwt consistency ---------------------------- *)

let test_cwt_matches_next_wake () =
  let sched = Wake_schedule.create ~rate:10 ~n_nodes:3 ~seed:77 () in
  for at = 0 to 50 do
    let wait = Cwt.wait sched ~at 1 in
    Alcotest.(check int) "wait lands on a wake" (Wake_schedule.next_wake sched 1 ~after:at)
      (at + wait)
  done

let test_async_emodel_weight_at_least_hops () =
  (* A sanity fixture: explicit schedules with known waits. Nodes on a
     line; node 1 wakes every 10 at phase 5. The proactive weight for
     waiting on node 1 is >= 1 regardless of frames sampled. *)
  let points = Array.init 3 (fun i -> Point.v (float_of_int i *. 8.) 0.) in
  let net = Network.create ~radius:10. points in
  let sched = Wake_schedule.of_explicit ~rate:10 [| [ 1 ]; [ 5 ]; [ 9 ] |] in
  let weight = Emodel.edge_weights (Model.create net (Model.Async sched)) in
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) (Printf.sprintf "weight(%d,%d) >= 1" u v) true (weight u v >= 1))
    [ (0, 1); (1, 0); (1, 2); (2, 1) ]

(* ------------------- schedule corner semantics ---------------------- *)

let test_schedule_of_lone_source () =
  (* A connected pair where the source's single cast closes everything:
     informed_after before the step sees only the source. *)
  let s =
    Schedule.make ~n_nodes:2 ~source:1 ~start:5
      [ { Schedule.slot = 5; senders = [ 1 ]; informed = [ 0 ] } ]
  in
  Alcotest.(check (list int)) "before" [ 1 ] (Bitset.elements (Schedule.informed_after s ~slot:4));
  Alcotest.(check (list int)) "after" [ 0; 1 ] (Bitset.elements (Schedule.informed_after s ~slot:5));
  Alcotest.(check int) "elapsed" 1 (Schedule.elapsed s)

let test_model_single_node () =
  let net = Network.create ~radius:5. [| Point.v 1. 1. |] in
  let m = Model.create net Model.Sync in
  let w = Model.initial_w m ~source:0 in
  Alcotest.(check bool) "complete immediately" true (Model.complete m ~w);
  let ist = Istate.create 1 in
  Istate.reset ist m ~w;
  Alcotest.(check (list int)) "no candidates" [] (Istate.candidates ist ~slot:1);
  Alcotest.(check (option int)) "no next slot" None (Istate.next_active_slot ist ~after:0)

let () =
  Alcotest.run "edge_cases"
    [
      ( "bitset seams",
        [
          Alcotest.test_case "word boundaries" `Quick test_bitset_word_boundaries;
          Alcotest.test_case "capacity in equality" `Quick test_bitset_hash_distinguishes_capacity;
        ] );
      ( "degenerate networks",
        [
          Alcotest.test_case "two nodes" `Quick test_two_node_broadcast;
          Alcotest.test_case "two-node E values" `Quick test_two_node_emodel_values;
          Alcotest.test_case "collinear line" `Quick test_collinear_network_boundary;
          Alcotest.test_case "single node model" `Quick test_model_single_node;
        ] );
      ( "duty cycle",
        [
          Alcotest.test_case "cwt = next_wake" `Quick test_cwt_matches_next_wake;
          Alcotest.test_case "async weights >= 1" `Quick test_async_emodel_weight_at_least_hops;
        ] );
      ( "schedule corners",
        [ Alcotest.test_case "lone source" `Quick test_schedule_of_lone_source ] );
    ]
