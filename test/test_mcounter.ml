module Bitset = Mlbs_util.Bitset
module Model = Mlbs_core.Model
module Choices = Mlbs_core.Choices
module Mcounter = Mlbs_core.Mcounter
module Schedule = Mlbs_core.Schedule
module Fixtures = Mlbs_workload.Fixtures
module Validate = Mlbs_sim.Validate

let big_budget = { Mcounter.max_states = 1_000_000; lookahead = 2; beam = 4 }

let eval model space ~w ~slot = Mcounter.evaluate model space ~budget:big_budget ~w ~slot

(* ----------------------- fixture values --------------------------- *)

let test_fig2_sync () =
  (* Table II: P(A) = 2 with the greedy scheme, and also for OPT. *)
  let m = Model.create Fixtures.fig2.Fixtures.net Model.Sync in
  let w = Model.initial_w m ~source:0 in
  let g = eval m Choices.Greedy ~w ~slot:1 in
  Alcotest.(check int) "greedy finish" 2 g.Mcounter.finish;
  Alcotest.(check bool) "exact" true g.Mcounter.exact;
  let o = eval m (Choices.All { max_sets = 64 }) ~w ~slot:1 in
  Alcotest.(check int) "opt finish" 2 o.Mcounter.finish

let test_fig1_sync () =
  (* Table III: P(A) = 3 for both G-OPT and OPT. *)
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let w = Model.initial_w m ~source in
  Alcotest.(check int) "greedy finish" 3 (eval m Choices.Greedy ~w ~slot:start).Mcounter.finish;
  Alcotest.(check int) "opt finish" 3
    (eval m (Choices.All { max_sets = 64 }) ~w ~slot:start).Mcounter.finish

let test_fig2_async () =
  (* Table IV: P(A) = 4 starting at t_s = 2. *)
  let fixture, sched = Fixtures.fig2_dc in
  let m = Model.create fixture.Fixtures.net (Model.Async sched) in
  let w = Model.initial_w m ~source:fixture.Fixtures.source in
  let e = eval m Choices.Greedy ~w ~slot:fixture.Fixtures.start in
  Alcotest.(check int) "finish" 4 e.Mcounter.finish;
  Alcotest.(check bool) "exact" true e.Mcounter.exact

let test_fig1_wrong_first_choice () =
  (* Figure 1(b): committing to node 0's relay first costs one extra
     round — M({s,0-3,5-7}, 3) = 4 while the optimum is 3. *)
  let { Fixtures.net; source; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let w = Model.initial_w m ~source in
  let w1 = Model.apply m ~w ~senders:[ source ] in
  let after_zero = Model.apply m ~w:w1 ~senders:[ 0 ] in
  Alcotest.(check int) "deferred" 4
    (eval m (Choices.All { max_sets = 64 }) ~w:after_zero ~slot:3).Mcounter.finish;
  let after_one = Model.apply m ~w:w1 ~senders:[ 1 ] in
  Alcotest.(check int) "optimal branch" 3
    (eval m (Choices.All { max_sets = 64 }) ~w:after_one ~slot:3).Mcounter.finish

let test_complete_is_slot_minus_one () =
  let m = Model.create Fixtures.fig2.Fixtures.net Model.Sync in
  let w = Bitset.full 5 in
  Alcotest.(check int) "M(N,t) = t-1" 6 (eval m Choices.Greedy ~w ~slot:7).Mcounter.finish

let test_unreachable_rejected () =
  (* Two isolated pairs: broadcasting from 0 can never reach 2-3. *)
  let points =
    [|
      Mlbs_geom.Point.v 0. 0.; Mlbs_geom.Point.v 1. 0.;
      Mlbs_geom.Point.v 40. 0.; Mlbs_geom.Point.v 41. 0.;
    |]
  in
  let net = Mlbs_wsn.Network.create ~radius:5. points in
  let m = Model.create net Model.Sync in
  let w = Model.initial_w m ~source:0 in
  Alcotest.check_raises "unreachable"
    (Failure "Mcounter: some node is unreachable from the informed set") (fun () ->
      ignore (eval m Choices.Greedy ~w ~slot:1))

(* --------------------------- plans -------------------------------- *)

let test_plan_matches_evaluation_fig1 () =
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let plan = Mcounter.plan m Choices.Greedy ~budget:big_budget ~source ~start in
  Alcotest.(check int) "finish matches" 3 (Schedule.finish plan);
  Alcotest.(check bool) "covers all" true (Schedule.covers_all plan);
  Validate.check_exn m plan

let test_plan_async_fig2 () =
  let fixture, sched = Fixtures.fig2_dc in
  let m = Model.create fixture.Fixtures.net (Model.Async sched) in
  let plan =
    Mcounter.plan m Choices.Greedy ~budget:big_budget ~source:fixture.Fixtures.source
      ~start:fixture.Fixtures.start
  in
  Alcotest.(check int) "finish" 4 (Schedule.finish plan);
  Validate.check_exn m plan;
  (* The first transmission is the source's wake at slot 2; the second
     advance happens at slot 4. *)
  let slots = List.map (fun s -> s.Schedule.slot) (Schedule.steps plan) in
  Alcotest.(check (list int)) "slots" [ 2; 4 ] slots

let test_budget_fallback_still_valid () =
  let tiny = { Mcounter.max_states = 1; lookahead = 1; beam = 2 } in
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let e = Mcounter.evaluate m Choices.Greedy ~budget:tiny ~w:(Model.initial_w m ~source) ~slot:start in
  Alcotest.(check bool) "flagged inexact" false e.Mcounter.exact;
  Alcotest.(check bool) "still an upper bound >= optimum" true (e.Mcounter.finish >= 3);
  let plan = Mcounter.plan m Choices.Greedy ~budget:tiny ~source ~start in
  Validate.check_exn m plan

(* ------------------------ properties ------------------------------ *)

let prop ?(count = 60) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_sync = Test_support.gen_sync_model
let gen_async = Test_support.gen_async_model

let initial model = Model.initial_w model ~source:0

let props =
  [
    prop "exact OPT <= exact G-OPT (choice-space dominance)" gen_sync
      (fun (model, _) ->
        let w = initial model in
        let o = eval model (Choices.All { max_sets = 4096 }) ~w ~slot:1 in
        let g = eval model Choices.Greedy ~w ~slot:1 in
        (not (o.Mcounter.exact && g.Mcounter.exact))
        || o.Mcounter.finish <= g.Mcounter.finish);
    prop "hop lower bound is admissible" gen_sync (fun (model, _) ->
        let w = initial model in
        let lb = Mcounter.hop_lower_bound model ~w in
        let g = eval model Choices.Greedy ~w ~slot:1 in
        g.Mcounter.finish >= lb);
    prop "rollout is an upper bound on exact M" gen_sync (fun (model, _) ->
        let w = initial model in
        let g = eval model Choices.Greedy ~w ~slot:1 in
        let r = Mcounter.rollout_finish model Choices.Greedy ~w ~slot:1 in
        (not g.Mcounter.exact) || r >= g.Mcounter.finish);
    prop "monotone: informing one more node never hurts" gen_sync (fun (model, seed) ->
        let w = initial model in
        let n = Model.n_nodes model in
        let extra = seed mod n in
        let w' = Bitset.copy w in
        Bitset.add w' extra;
        let m1 = eval model Choices.Greedy ~w ~slot:1 in
        let m2 = eval model Choices.Greedy ~w:w' ~slot:1 in
        (not (m1.Mcounter.exact && m2.Mcounter.exact))
        || m2.Mcounter.finish <= m1.Mcounter.finish);
    prop "sync time-shift invariance: M(w,t+k) = M(w,t)+k" gen_sync (fun (model, _) ->
        let w = initial model in
        let a = eval model Choices.Greedy ~w ~slot:1 in
        let b = eval model Choices.Greedy ~w ~slot:5 in
        b.Mcounter.finish = a.Mcounter.finish + 4);
    prop "plan realises the evaluated finish (sync exact)" gen_sync (fun (model, _) ->
        let w = initial model in
        let e = eval model Choices.Greedy ~w ~slot:1 in
        let plan = Mcounter.plan model Choices.Greedy ~budget:big_budget ~source:0 ~start:1 in
        (not e.Mcounter.exact) || Schedule.finish plan = e.Mcounter.finish);
    prop "plans replay cleanly on the radio (sync)" gen_sync (fun (model, _) ->
        let plan = Mcounter.plan model Choices.Greedy ~budget:big_budget ~source:0 ~start:1 in
        (Validate.check model plan).Validate.ok);
    prop ~count:40 "plans replay cleanly on the radio (async)" gen_async
      (fun (model, _) ->
        let plan = Mcounter.plan model Choices.Greedy ~budget:big_budget ~source:0 ~start:1 in
        (Validate.check model plan).Validate.ok);
    prop ~count:40 "async plan matches async evaluation when exact" gen_async
      (fun (model, _) ->
        let e = eval model Choices.Greedy ~w:(initial model) ~slot:1 in
        let plan = Mcounter.plan model Choices.Greedy ~budget:big_budget ~source:0 ~start:1 in
        (not e.Mcounter.exact) || Schedule.finish plan = e.Mcounter.finish);
    prop ~count:40 "idling at an active slot never helps (async)" gen_async
      (fun (model, _) ->
        (* The search never considers "do nothing" at an active slot;
           monotonicity makes acting dominate. Skipping the first active
           slot must not improve the finish time. *)
        let w = initial model in
        match Model.next_active_slot model ~w ~after:0 with
        | None -> true
        | Some t ->
            let act = eval model Choices.Greedy ~w ~slot:t in
            let skip = eval model Choices.Greedy ~w ~slot:(t + 1) in
            (not (act.Mcounter.exact && skip.Mcounter.exact))
            || act.Mcounter.finish <= skip.Mcounter.finish);
    prop ~count:40 "async finish >= sync finish (waits only add)" gen_async
      (fun (model, _) ->
        let sync_model = Model.create (Model.network model) Model.Sync in
        let a = eval model Choices.Greedy ~w:(initial model) ~slot:1 in
        let s = eval sync_model Choices.Greedy ~w:(initial sync_model) ~slot:1 in
        (not (a.Mcounter.exact && s.Mcounter.exact))
        || a.Mcounter.finish >= s.Mcounter.finish);
  ]

let () =
  Alcotest.run "mcounter"
    [
      ( "fixtures",
        [
          Alcotest.test_case "fig2 sync = 2" `Quick test_fig2_sync;
          Alcotest.test_case "fig1 sync = 3" `Quick test_fig1_sync;
          Alcotest.test_case "fig2 async = 4" `Quick test_fig2_async;
          Alcotest.test_case "fig1 wrong first choice" `Quick test_fig1_wrong_first_choice;
          Alcotest.test_case "complete state" `Quick test_complete_is_slot_minus_one;
          Alcotest.test_case "unreachable" `Quick test_unreachable_rejected;
        ] );
      ( "plans",
        [
          Alcotest.test_case "fig1 plan" `Quick test_plan_matches_evaluation_fig1;
          Alcotest.test_case "fig2 async plan" `Quick test_plan_async_fig2;
          Alcotest.test_case "budget fallback" `Quick test_budget_fallback_still_valid;
        ] );
      ("properties", props);
    ]
