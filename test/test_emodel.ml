module Bitset = Mlbs_util.Bitset
module Quadrant = Mlbs_geom.Quadrant
module Model = Mlbs_core.Model
module Emodel = Mlbs_core.Emodel
module Schedule = Mlbs_core.Schedule
module Fixtures = Mlbs_workload.Fixtures
module Validate = Mlbs_sim.Validate
module Wake_schedule = Mlbs_dutycycle.Wake_schedule

(* The paper's §IV-E example on Figure 1:
   E_2(7) = E_2(8) = E_2(9) = 0, E_2(0) = E_2(4) = E_2(5) = E_2(6) =
   E_2(10) = 1, and E_2(1) = 2 is the maximum. *)
let test_fig1_published_e2 () =
  let m = Model.create Fixtures.fig1.Fixtures.net Model.Sync in
  let e = Emodel.compute m in
  let check node expected =
    Alcotest.(check int) (Printf.sprintf "E_2(%d)" node) expected
      (Emodel.value e ~node Quadrant.Q2)
  in
  List.iter (fun u -> check u 0) [ 7; 8; 9 ];
  List.iter (fun u -> check u 1) [ 0; 4; 5; 6; 10 ];
  check 1 2

let test_fig1_selects_magenta () =
  (* At W = {s,0,1,2} with classes [{0};{1};{2}], Eq. 10 must pick the
     class of node 1 (the magenta relay of Figure 1(c)). *)
  let { Fixtures.net; source; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let e = Emodel.compute m in
  let w = Bitset.of_list 12 [ source; 0; 1; 2 ] in
  let classes = Model.greedy_classes m ~w ~slot:2 in
  Alcotest.(check (list (list int))) "greedy classes" [ [ 0 ]; [ 1 ]; [ 2 ] ] classes;
  Alcotest.(check int) "selects node 1's class" 1 (Emodel.select e m ~w ~classes)

let test_fig1_plan_optimal () =
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let plan = Emodel.plan m ~source ~start in
  Alcotest.(check int) "achieves P(A)=3" 3 (Schedule.finish plan);
  Validate.check_exn m plan

let test_max_applicable () =
  let { Fixtures.net; source; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let e = Emodel.compute m in
  let w = Bitset.of_list 12 [ source; 0; 1; 2 ] in
  (* Node 1's applicable maximum is its famous E_2 = 2. *)
  Alcotest.(check (option int)) "node 1" (Some 2) (Emodel.max_applicable e m ~w ~node:1);
  (* The source has no uninformed neighbours: nothing applies. *)
  Alcotest.(check (option int)) "source" None (Emodel.max_applicable e m ~w ~node:source)

let test_select_requires_classes () =
  let m = Model.create Fixtures.fig2.Fixtures.net Model.Sync in
  let e = Emodel.compute m in
  Alcotest.check_raises "empty" (Invalid_argument "Emodel.select: no classes") (fun () ->
      ignore (Emodel.select e m ~w:(Bitset.of_list 5 [ 0 ]) ~classes:[]))

let prop ?(count = 80) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let props =
  [
    prop "all E values finite and nonnegative (sync)" Test_support.gen_sync_model
      (fun (model, _) ->
        let e = Emodel.compute model in
        List.for_all
          (fun u ->
            List.for_all
              (fun q ->
                let v = Emodel.value e ~node:u q in
                v >= 0 && v < max_int)
              Quadrant.all)
          (List.init (Model.n_nodes model) Fun.id));
    prop "empty quadrant implies E = 0 (sync)" Test_support.gen_sync_model
      (fun (model, _) ->
        let e = Emodel.compute model in
        let net = Model.network model in
        List.for_all
          (fun u ->
            List.for_all
              (fun q ->
                Array.length (Mlbs_wsn.Network.neighbors_in_quadrant net u q) > 0
                || Emodel.value e ~node:u q = 0)
              Quadrant.all)
          (List.init (Model.n_nodes model) Fun.id));
    prop "E is relaxation-consistent from below (sync)"
      Test_support.gen_sync_model (fun (model, _) ->
        (* Algorithm 2's phase B updates "∞ values and only ∞ values",
           so a phase-A value may sit above 1 + min once hole-seeded
           neighbours appear; but no value may ever undercut the
           relaxation: nonempty quadrant ⇒ E_i(u) ≥ 1 + min E_i(v),
           with phase-B nodes achieving equality. *)
        let e = Emodel.compute model in
        let net = Model.network model in
        List.for_all
          (fun u ->
            List.for_all
              (fun q ->
                let nbrs = Mlbs_wsn.Network.neighbors_in_quadrant net u q in
                Array.length nbrs = 0
                ||
                let m =
                  Array.fold_left
                    (fun acc v -> min acc (Emodel.value e ~node:v q))
                    max_int nbrs
                in
                Emodel.value e ~node:u q >= 1 + m
                && Emodel.value e ~node:u q <= Model.n_nodes model)
              Quadrant.all)
          (List.init (Model.n_nodes model) Fun.id));
    prop ~count:40 "E-model schedules are valid and complete (sync)"
      Test_support.gen_sync_model (fun (model, _) ->
        let plan = Emodel.plan model ~source:0 ~start:1 in
        Schedule.covers_all plan && (Validate.check model plan).Validate.ok);
    prop ~count:30 "E-model schedules are valid and complete (async)"
      Test_support.gen_async_model (fun (model, _) ->
        let plan = Emodel.plan model ~source:0 ~start:1 in
        Schedule.covers_all plan && (Validate.check model plan).Validate.ok);
    prop ~count:30 "async E values respect CWT weights >= hop count"
      Test_support.gen_async_model (fun (model, _) ->
        let e_async = Emodel.compute model in
        let sync_model = Model.create (Model.network model) Model.Sync in
        let e_sync = Emodel.compute sync_model in
        (* CWT weights are >= 1, so the async estimate dominates hops. *)
        List.for_all
          (fun u ->
            List.for_all
              (fun q ->
                Emodel.value e_async ~node:u q >= Emodel.value e_sync ~node:u q)
              Quadrant.all)
          (List.init (Model.n_nodes model) Fun.id));
  ]

(* A network's quadrant partition is built on first use. Two domains
   sharing one network that has never been asked for it both force it
   at once through E-model planning: neither may raise, and both must
   get the schedule a network of their own gives. *)
let test_shared_network_two_domains () =
  let spec = Mlbs_wsn.Deployment.paper_spec ~n_nodes:150 in
  for seed = 1 to 4 do
    let fresh () = Mlbs_wsn.Deployment.generate (Mlbs_prng.Rng.create seed) spec in
    let plan net = Schedule.steps (Emodel.plan (Model.create net Model.Sync) ~source:0 ~start:1) in
    let expected = plan (fresh ()) in
    let shared = fresh () in
    let go = Atomic.make false in
    let worker () =
      while not (Atomic.get go) do
        Domain.cpu_relax ()
      done;
      plan shared
    in
    let domains = List.init 2 (fun _ -> Domain.spawn worker) in
    Atomic.set go true;
    List.iter
      (fun d ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: shared-network schedule = own-network schedule" seed)
          true
          (Domain.join d = expected))
      domains
  done

let () =
  Alcotest.run "emodel"
    [
      ( "fig1",
        [
          Alcotest.test_case "published E_2 values" `Quick test_fig1_published_e2;
          Alcotest.test_case "selects magenta" `Quick test_fig1_selects_magenta;
          Alcotest.test_case "plan optimal" `Quick test_fig1_plan_optimal;
          Alcotest.test_case "max applicable" `Quick test_max_applicable;
          Alcotest.test_case "select requires classes" `Quick test_select_requires_classes;
        ] );
      ( "sharing",
        [ Alcotest.test_case "two domains force quadrants" `Quick test_shared_network_two_domains ] );
      ("properties", props);
    ]
