module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Scheduler = Mlbs_core.Scheduler
module Mcounter = Mlbs_core.Mcounter
module Baseline26 = Mlbs_core.Baseline26
module Baseline17 = Mlbs_core.Baseline17
module Bounds = Mlbs_core.Bounds
module Bfs = Mlbs_graph.Bfs
module Fixtures = Mlbs_workload.Fixtures
module Validate = Mlbs_sim.Validate
module Wake_schedule = Mlbs_dutycycle.Wake_schedule

let big_budget = { Mcounter.max_states = 1_000_000; lookahead = 2; beam = 4 }

(* ------------------------- baselines ------------------------------ *)

let test_baseline26_fig1 () =
  (* Layer synchronisation forbids the pipeline: the BFS from s has
     layers {s}, {0,1,2}, {3..7,10}, {8,9}; the layered baseline needs
     strictly more rounds than the pipelined optimum of 3. *)
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let plan = Baseline26.plan m ~source ~start in
  Validate.check_exn m plan;
  Alcotest.(check bool) "slower than OPT" true (Schedule.finish plan > 3)

let test_baseline26_layered_order () =
  (* Senders of deeper BFS layers never transmit before shallower layers
     finish. *)
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let dist = (Bfs.run (Model.graph m) ~source).Bfs.dist in
  let plan = Baseline26.plan m ~source ~start in
  let last_slot_of_layer = Hashtbl.create 8 in
  List.iter
    (fun step ->
      List.iter
        (fun u ->
          Hashtbl.replace last_slot_of_layer dist.(u)
            (max step.Schedule.slot
               (Option.value ~default:0 (Hashtbl.find_opt last_slot_of_layer dist.(u)))))
        step.Schedule.senders)
    (Schedule.steps plan);
  let rec check_layer l =
    match (Hashtbl.find_opt last_slot_of_layer l, Hashtbl.find_opt last_slot_of_layer (l + 1)) with
    | Some a, Some b ->
        Alcotest.(check bool) (Printf.sprintf "layer %d before %d" l (l + 1)) true (a < b);
        check_layer (l + 1)
    | _ -> ()
  in
  check_layer 0

let test_baseline26_rejects_async () =
  let fixture, sched = Fixtures.fig2_dc in
  let m = Model.create fixture.Fixtures.net (Model.Async sched) in
  Alcotest.check_raises "async rejected"
    (Invalid_argument "Baseline26.plan: synchronous model required") (fun () ->
      ignore (Baseline26.plan m ~source:0 ~start:1))

let test_baseline17_fig2dc () =
  let fixture, sched = Fixtures.fig2_dc in
  let m = Model.create fixture.Fixtures.net (Model.Async sched) in
  let plan = Baseline17.plan m ~source:fixture.Fixtures.source ~start:fixture.Fixtures.start in
  Validate.check_exn m plan;
  Alcotest.(check bool) "covers" true (Schedule.covers_all plan)

let test_baseline17_senders_at_own_wakes () =
  (* Every relay of the duty-cycle baseline transmits at one of its own
     wake slots, and BFS layers never interleave. *)
  let fixture, sched = Fixtures.fig2_dc in
  let m = Model.create fixture.Fixtures.net (Model.Async sched) in
  let plan = Baseline17.plan m ~source:fixture.Fixtures.source ~start:fixture.Fixtures.start in
  let dist = (Bfs.run (Model.graph m) ~source:fixture.Fixtures.source).Bfs.dist in
  let max_layer_slot = Hashtbl.create 4 in
  List.iter
    (fun step ->
      List.iter
        (fun u ->
          Alcotest.(check bool)
            (Printf.sprintf "sender %d awake at %d" u step.Schedule.slot)
            true
            (Wake_schedule.awake sched u ~slot:step.Schedule.slot);
          Hashtbl.replace max_layer_slot dist.(u)
            (max step.Schedule.slot
               (Option.value ~default:0 (Hashtbl.find_opt max_layer_slot dist.(u)))))
        step.Schedule.senders)
    (Schedule.steps plan);
  let rec layers_ordered l =
    match (Hashtbl.find_opt max_layer_slot l, Hashtbl.find_opt max_layer_slot (l + 1)) with
    | Some a, Some b ->
        Alcotest.(check bool) "layer order" true (a < b);
        layers_ordered (l + 1)
    | _ -> ()
  in
  layers_ordered 0

let test_baseline17_rejects_sync () =
  let m = Model.create Fixtures.fig2.Fixtures.net Model.Sync in
  Alcotest.check_raises "sync rejected"
    (Invalid_argument "Baseline17.plan: duty-cycle model required") (fun () ->
      ignore (Baseline17.plan m ~source:0 ~start:1))

(* ------------------------- dispatcher ----------------------------- *)

let test_names () =
  let async_sched = Wake_schedule.create ~rate:5 ~n_nodes:5 ~seed:1 () in
  Alcotest.(check string) "sync baseline" "26-approx"
    (Scheduler.name ~system:Model.Sync Scheduler.Baseline);
  Alcotest.(check string) "async baseline" "17-approx"
    (Scheduler.name ~system:(Model.Async async_sched) Scheduler.Baseline);
  Alcotest.(check string) "gopt" "G-OPT" (Scheduler.name ~system:Model.Sync Scheduler.gopt);
  Alcotest.(check string) "opt" "OPT" (Scheduler.name ~system:Model.Sync Scheduler.opt);
  Alcotest.(check string) "emodel" "E-model"
    (Scheduler.name ~system:Model.Sync Scheduler.Emodel)

let test_dispatch_runs_all_fig1 () =
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  List.iter
    (fun policy ->
      let plan = Scheduler.run m policy ~source ~start in
      Validate.check_exn m plan)
    Scheduler.all_policies

(* --------------------------- bounds ------------------------------- *)

let test_bound_formulas () =
  Alcotest.(check int) "sync" 7 (Bounds.opt_sync ~d:5);
  Alcotest.(check int) "async" 140 (Bounds.opt_async ~d:5 ~rate:10);
  Alcotest.(check int) "jiao" 1700 (Bounds.jiao17 ~d:5 ~rate:10);
  Alcotest.(check int) "chen" 130 (Bounds.chen26 ~d:5)

let test_source_depth_fig1 () =
  let { Fixtures.net; source; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  Alcotest.(check int) "d = 3" 3 (Bounds.source_depth m ~source)

(* ------------------------ properties ------------------------------ *)

let prop ?(count = 50) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let valid_and_complete model plan =
  Schedule.covers_all plan && (Validate.check model plan).Validate.ok

let props =
  [
    prop "all sync policies produce valid complete schedules"
      Test_support.gen_sync_model (fun (model, _) ->
        List.for_all
          (fun policy ->
            valid_and_complete model (Scheduler.run model policy ~source:0 ~start:1))
          Scheduler.all_policies);
    prop ~count:30 "all async policies produce valid complete schedules"
      Test_support.gen_async_model (fun (model, _) ->
        List.for_all
          (fun policy ->
            valid_and_complete model (Scheduler.run model policy ~source:0 ~start:1))
          Scheduler.all_policies);
    prop "Theorem 1: exact OPT elapsed < d + 2 (sync)" Test_support.gen_sync_model
      (fun (model, _) ->
        let e =
          Mcounter.evaluate model (Mlbs_core.Choices.All { max_sets = 4096 })
            ~budget:big_budget ~w:(Model.initial_w model ~source:0) ~slot:1
        in
        let d = Bounds.source_depth model ~source:0 in
        (not e.Mcounter.exact) || e.Mcounter.finish < Bounds.opt_sync ~d);
    prop "pipelined G-OPT never slower than the layered baseline (sync)"
      Test_support.gen_sync_model (fun (model, _) ->
        let b = Scheduler.run model Scheduler.Baseline ~source:0 ~start:1 in
        let g =
          Mcounter.evaluate model Mlbs_core.Choices.Greedy ~budget:big_budget
            ~w:(Model.initial_w model ~source:0) ~slot:1
        in
        (not g.Mcounter.exact) || g.Mcounter.finish <= Schedule.finish b);
    prop ~count:30 "Theorem 1: exact OPT elapsed < 2r(d+2) (async)"
      Test_support.gen_async_model (fun (model, _) ->
        let e =
          Mcounter.evaluate model (Mlbs_core.Choices.All { max_sets = 4096 })
            ~budget:big_budget ~w:(Model.initial_w model ~source:0) ~slot:1
        in
        let d = Bounds.source_depth model ~source:0 in
        let rate =
          match Model.system model with
          | Model.Async s -> Wake_schedule.rate s
          | Model.Sync -> assert false
        in
        (not e.Mcounter.exact) || e.Mcounter.finish < Bounds.opt_async ~d ~rate);
    prop "baseline26 sends each node at most once" Test_support.gen_sync_model
      (fun (model, _) ->
        let plan = Scheduler.run model Scheduler.Baseline ~source:0 ~start:1 in
        let senders = List.concat_map (fun s -> s.Schedule.senders) (Schedule.steps plan) in
        List.length senders = List.length (List.sort_uniq compare senders));
  ]

let () =
  Alcotest.run "schedulers"
    [
      ( "baselines",
        [
          Alcotest.test_case "26 on fig1" `Quick test_baseline26_fig1;
          Alcotest.test_case "26 layered order" `Quick test_baseline26_layered_order;
          Alcotest.test_case "26 rejects async" `Quick test_baseline26_rejects_async;
          Alcotest.test_case "17 on fig2dc" `Quick test_baseline17_fig2dc;
          Alcotest.test_case "17 senders at own wakes" `Quick test_baseline17_senders_at_own_wakes;
          Alcotest.test_case "17 rejects sync" `Quick test_baseline17_rejects_sync;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "all policies on fig1" `Quick test_dispatch_runs_all_fig1;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "formulas" `Quick test_bound_formulas;
          Alcotest.test_case "fig1 depth" `Quick test_source_depth_fig1;
        ] );
      ("properties", props);
    ]
