module Bitset = Mlbs_util.Bitset
module Quadrant = Mlbs_geom.Quadrant
module Model = Mlbs_core.Model
module Emodel = Mlbs_core.Emodel
module Schedule = Mlbs_core.Schedule
module Hello = Mlbs_proto.Hello
module E_protocol = Mlbs_proto.E_protocol
module Broadcast_protocol = Mlbs_proto.Broadcast_protocol
module Interference = Mlbs_phy.Interference
module Validate = Mlbs_sim.Validate
module Fixtures = Mlbs_workload.Fixtures
module Config = Mlbs_workload.Config
module Experiment = Mlbs_workload.Experiment
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Network = Mlbs_wsn.Network

(* ---------------------------- hello -------------------------------- *)

let test_hello_views_match_topology () =
  let net = Fixtures.fig1.Fixtures.net in
  let { Hello.views; messages } = Hello.discover net in
  Alcotest.(check int) "2 beacons per node" (2 * 12) messages;
  Array.iteri
    (fun u (v : Hello.view) ->
      Alcotest.(check int) "id" u v.Hello.id;
      Alcotest.(check (list int)) "neighbors match network"
        (Array.to_list (Network.neighbors net u))
        (Array.to_list v.Hello.neighbors))
    views

let test_hello_two_hop () =
  let net = Fixtures.fig2.Fixtures.net in
  let { Hello.views; _ } = Hello.discover net in
  (* Node 1 (id 0): neighbours {1,2}; two-hop adds {3,4}. *)
  Alcotest.(check (list int)) "two hop of node 1" [ 1; 2; 3; 4 ] (Hello.two_hop views.(0));
  (* Node 5 (id 4): neighbour {1}; two-hop adds {0,3}. *)
  Alcotest.(check (list int)) "two hop of node 5" [ 0; 1; 3 ] (Hello.two_hop views.(4))

let test_hello_knows_edge () =
  let net = Fixtures.fig2.Fixtures.net in
  let { Hello.views; _ } = Hello.discover net in
  let v0 = views.(0) in
  Alcotest.(check bool) "own edge" true (Hello.knows_edge v0 0 1);
  Alcotest.(check bool) "neighbour's edge" true (Hello.knows_edge v0 1 3);
  Alcotest.(check bool) "unknown edge" false (Hello.knows_edge v0 3 3);
  (* 2-hop to 2-hop edges are invisible from id 4's view. *)
  let v4 = views.(4) in
  Alcotest.(check bool) "certifies 1-3" true (Hello.knows_edge v4 1 3);
  Alcotest.(check bool) "cannot certify 2-3" false (Hello.knows_edge v4 2 3)

(* -------------------------- e protocol ----------------------------- *)

let check_matches_centralized model =
  let views = (Hello.discover (Model.network model)).Hello.views in
  let dist = E_protocol.construct model views in
  let central = Emodel.compute ~seeding:Emodel.Merged model in
  let n = Model.n_nodes model in
  for u = 0 to n - 1 do
    List.iter
      (fun q ->
        Alcotest.(check int)
          (Printf.sprintf "E_%s(%d)" (Quadrant.to_string q) u)
          (Emodel.value central ~node:u q)
          dist.E_protocol.values.(u).(Quadrant.to_index q))
      Quadrant.all
  done;
  dist

let test_e_protocol_fig1 () =
  let model = Model.create Fixtures.fig1.Fixtures.net Model.Sync in
  let dist = check_matches_centralized model in
  Alcotest.(check bool) "few rounds" true (dist.E_protocol.rounds <= 12);
  (* Theorem 3: the construction costs O(1) per node — "less than 4xN"
     total updates. *)
  Alcotest.(check bool)
    (Printf.sprintf "messages %d < 4n" dist.E_protocol.messages)
    true
    (dist.E_protocol.messages < 4 * 12)

let test_e_protocol_async_fig2 () =
  let fixture, sched = Fixtures.fig2_dc in
  let model = Model.create fixture.Fixtures.net (Model.Async sched) in
  ignore (check_matches_centralized model)

(* ----------------------- broadcast protocol ------------------------ *)

let test_broadcast_fig2 () =
  let m = Model.create Fixtures.fig2.Fixtures.net Model.Sync in
  let r = Broadcast_protocol.run m ~source:0 ~start:1 in
  Alcotest.(check bool) "covers" true (Schedule.covers_all r.Broadcast_protocol.schedule);
  Alcotest.(check bool) "lossy-valid" true
    (Validate.check_lossy m r.Broadcast_protocol.schedule).Validate.ok;
  Alcotest.(check bool) "beacons counted" true (r.Broadcast_protocol.beacon_messages > 0)

let test_broadcast_fig1 () =
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let r = Broadcast_protocol.run m ~source ~start in
  Alcotest.(check bool) "covers" true (Schedule.covers_all r.Broadcast_protocol.schedule);
  Alcotest.(check bool) "lossy-valid" true
    (Validate.check_lossy m r.Broadcast_protocol.schedule).Validate.ok

let test_broadcast_async () =
  let fixture, sched = Fixtures.fig2_dc in
  let m = Model.create fixture.Fixtures.net (Model.Async sched) in
  let r = Broadcast_protocol.run m ~source:fixture.Fixtures.source ~start:fixture.Fixtures.start in
  Alcotest.(check bool) "covers" true (Schedule.covers_all r.Broadcast_protocol.schedule)

let test_max_slots_guard () =
  let m = Model.create Fixtures.fig1.Fixtures.net Model.Sync in
  Alcotest.check_raises "guard"
    (Failure "Broadcast_protocol.run: no coverage within 1 slots") (fun () ->
      ignore (Broadcast_protocol.run ~max_slots:1 m ~source:11 ~start:1))

(* Pinned output: the protocol's schedule text and its collision,
   beacon and retransmission counts, digested, on generated n = 60
   deployments under every interference model, one duty-cycled run and
   one run under a Bernoulli fault plan. Any change to the per-node
   colouring, the class choice or the beacon exchange shows here. *)
let protocol_digest ?faults phy system ~seed =
  let inst = Experiment.make_instance Config.quick ~n:60 ~seed in
  let m = Model.create ~phy inst.Experiment.net (system inst) in
  let r = Broadcast_protocol.run ?faults m ~source:inst.Experiment.source ~start:1 in
  Digest.to_hex
    (Digest.string
       (Format.asprintf "%a|%d|%d|%d" Schedule.pp r.Broadcast_protocol.schedule
          r.Broadcast_protocol.collisions r.Broadcast_protocol.beacon_messages
          r.Broadcast_protocol.retransmissions))

let sync _ = Model.Sync

let test_pinned_digests () =
  let cases =
    List.concat_map
      (fun (phy, digests) ->
        List.map2
          (fun seed d ->
            (Printf.sprintf "%s seed %d" (Interference.to_string phy) seed,
             (fun () -> protocol_digest phy sync ~seed), d))
          [ 1; 2; 3 ] digests)
      Interference.
        [
          (Udg,
           [ "cca43e44848bcf8a66f74a275e437a50"; "15b6b801e34c78ac50f674ec697d2690";
             "2479cecaeb2ed64a57ca53597ae23a22" ]);
          (Sinr default_sinr,
           [ "dbbbd437c96e1cc01bbc919ca556890f"; "786255ee84a4e236cc53e3600d2334e7";
             "eadaf42db7c3d155b4603a805f827865" ]);
          (Multichannel 3,
           [ "cca43e44848bcf8a66f74a275e437a50"; "79c9f6b07e0889ede2892b33b7ed71c8";
             "356d5cbbee7aa0e09115bd895da0b796" ]);
        ]
    @ [
        ( "udg duty-cycled seed 1",
          (fun () ->
            protocol_digest Interference.Udg ~seed:1 (fun inst ->
                Model.Async
                  (Wake_schedule.create ~rate:5
                     ~n_nodes:(Network.n_nodes inst.Experiment.net) ~seed:104729 ()))),
          "8923313651364641afd6c41ea0c6a703" );
        ( "udg bernoulli 0.2 seed 2",
          (fun () ->
            let inst = Experiment.make_instance Config.quick ~n:60 ~seed:2 in
            protocol_digest Interference.Udg sync ~seed:2
              ~faults:(Experiment.fault_plan Config.quick ~inst_seed:2 ~loss:0.2 inst)),
          "e2b75fe4a48bc09f94992f4a8b2fea6f" );
      ]
  in
  List.iter (fun (name, run, d) -> Alcotest.(check string) name d (run ())) cases

let prop ?(count = 40) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_runner_model =
  QCheck2.Gen.(
    let* model, _ = oneof [ Test_support.gen_sync_model; Test_support.gen_async_model ] in
    let* phy =
      oneofl
        Interference.[ Udg; Multichannel 1; Multichannel 2; Multichannel 3; Sinr default_sinr ]
    in
    return (Model.create ~phy (Model.network model) (Model.system model)))

let props =
  [
    prop "distributed E = centralized merged E (sync)" Test_support.gen_sync_model
      (fun (model, _) ->
        let views = (Hello.discover (Model.network model)).Hello.views in
        let dist = E_protocol.construct model views in
        let central = Emodel.compute ~seeding:Emodel.Merged model in
        List.for_all
          (fun u ->
            List.for_all
              (fun q ->
                dist.E_protocol.values.(u).(Quadrant.to_index q)
                = Emodel.value central ~node:u q)
              Quadrant.all)
          (List.init (Model.n_nodes model) Fun.id));
    prop "Theorem 3: E construction under 4 messages per node"
      Test_support.gen_sync_model (fun (model, _) ->
        let views = (Hello.discover (Model.network model)).Hello.views in
        let dist = E_protocol.construct model views in
        dist.E_protocol.messages < 4 * Model.n_nodes model);
    prop "distributed broadcast covers and validates (sync)"
      Test_support.gen_sync_model (fun (model, _) ->
        let r = Broadcast_protocol.run model ~source:0 ~start:1 in
        Schedule.covers_all r.Broadcast_protocol.schedule
        && (Validate.check_lossy model r.Broadcast_protocol.schedule).Validate.ok);
    prop ~count:20 "distributed broadcast covers under duty cycling"
      Test_support.gen_async_model (fun (model, _) ->
        let r = Broadcast_protocol.run model ~source:0 ~start:1 in
        Schedule.covers_all r.Broadcast_protocol.schedule);
    prop "merged seeding is pointwise <= two-phase" Test_support.gen_sync_model
      (fun (model, _) ->
        let merged = Emodel.compute ~seeding:Emodel.Merged model in
        let two = Emodel.compute ~seeding:Emodel.Two_phase model in
        List.for_all
          (fun u ->
            List.for_all
              (fun q -> Emodel.value merged ~node:u q <= Emodel.value two ~node:u q)
              Quadrant.all)
          (List.init (Model.n_nodes model) Fun.id));
    prop "every runner replays clean under the model it ran on" gen_runner_model
      (fun model ->
        List.for_all
          (fun (name, (schedule, covered)) ->
            let r = Validate.check_lossy model schedule in
            (* A lossy run may collide and, for [Once], strand nodes;
               what it may never do is claim receptions its model's
               radio would not grant. *)
            if r.Validate.violations <> [] || r.Validate.ok <> covered then
              QCheck2.Test.fail_reportf "%s under %s: %s" name
                (Interference.to_string (Model.phy model))
                (String.concat "; " r.Validate.violations)
            else true)
          (Test_support.runner_schedules model));
  ]

let () =
  Alcotest.run "proto"
    [
      ( "hello",
        [
          Alcotest.test_case "views match topology" `Quick test_hello_views_match_topology;
          Alcotest.test_case "two hop" `Quick test_hello_two_hop;
          Alcotest.test_case "knows edge" `Quick test_hello_knows_edge;
        ] );
      ( "e protocol",
        [
          Alcotest.test_case "fig1 = centralized" `Quick test_e_protocol_fig1;
          Alcotest.test_case "async fig2" `Quick test_e_protocol_async_fig2;
        ] );
      ( "broadcast",
        [
          Alcotest.test_case "fig2" `Quick test_broadcast_fig2;
          Alcotest.test_case "fig1" `Quick test_broadcast_fig1;
          Alcotest.test_case "async" `Quick test_broadcast_async;
          Alcotest.test_case "max slots" `Quick test_max_slots_guard;
          Alcotest.test_case "pinned digests" `Quick test_pinned_digests;
        ] );
      ("properties", props);
    ]
