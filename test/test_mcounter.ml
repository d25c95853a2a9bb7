module Bitset = Mlbs_util.Bitset
module Model = Mlbs_core.Model
module Walk = Test_support.Model_walk
module Choices = Mlbs_core.Choices
module Mcounter = Mlbs_core.Mcounter
module Schedule = Mlbs_core.Schedule
module Fixtures = Mlbs_workload.Fixtures
module Validate = Mlbs_sim.Validate
module Metrics = Mlbs_obs.Metrics
module Obs = Mlbs_obs.Obs

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
  let w1 = Walk.apply m ~w ~senders:[ source ] in
  let after_zero = Walk.apply m ~w:w1 ~senders:[ 0 ] in
  Alcotest.(check int) "deferred" 4
    (eval m (Choices.All { max_sets = 64 }) ~w:after_zero ~slot:3).Mcounter.finish;
  let after_one = Walk.apply m ~w:w1 ~senders:[ 1 ] in
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
  let check m ~source ~start ~optimum =
    let w = Model.initial_w m ~source in
    let e = Mcounter.evaluate m Choices.Greedy ~budget:tiny ~w ~slot:start in
    Alcotest.(check bool) "flagged inexact" false e.Mcounter.exact;
    Alcotest.(check bool) "still an upper bound >= optimum" true
      (e.Mcounter.finish >= optimum);
    let plan = Mcounter.plan m Choices.Greedy ~budget:tiny ~source ~start in
    Validate.check_exn m plan
  in
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  check (Model.create net Model.Sync) ~source ~start ~optimum:3;
  let fixture, sched = Fixtures.fig2_dc in
  check
    (Model.create fixture.Fixtures.net (Model.Async sched))
    ~source:fixture.Fixtures.source ~start:fixture.Fixtures.start ~optimum:4

(* A paper deployment (n = 100, deployment seed 2) under a named
   interference model, sync when [rate = 0] and duty-cycled otherwise. *)
let paper_model ~phy ~rate =
  let n = 100 and seed = 2 in
  let net =
    Mlbs_wsn.Deployment.generate (Mlbs_prng.Rng.create seed)
      (Mlbs_wsn.Deployment.paper_spec ~n_nodes:n)
  in
  let phy = Result.get_ok (Mlbs_phy.Interference.parse phy) in
  let system =
    if rate = 0 then Model.Sync
    else
      Model.Async
        (Mlbs_dutycycle.Wake_schedule.create ~rate ~n_nodes:n ~seed:(seed * 104729) ())
  in
  Model.create ~phy net system

(* A seeded plan whose search exhausts the budget reruns without seeds,
   so it returns the cold degraded plan's schedule byte for byte. The
   seed set is one entry of an exact snapshot; the budget is far below
   the instance's 139 states. *)
let test_seeded_exhaustion_restarts () =
  let model = paper_model ~phy:"udg" ~rate:4 in
  let tiny = { Mcounter.max_states = 5; lookahead = 2; beam = 4 } in
  let _, snap =
    Mcounter.plan_snapshot model Choices.Greedy ~budget:Mcounter.default_budget ~source:0
      ~start:1
  in
  let admitted = ref 0 in
  let valid _ =
    incr admitted;
    !admitted = 1
  in
  Obs.enable ~metrics:true ();
  Metrics.reset ();
  let seeded, snap' =
    Mcounter.plan_snapshot ~seeds:(snap, valid) model Choices.Greedy ~budget:tiny ~source:0
      ~start:1
  in
  let n_seeded = Metrics.counter_value "search/seeded_entries" in
  Obs.disable ();
  Alcotest.(check int) "one entry seeded" 1 n_seeded;
  Alcotest.(check bool) "degraded snapshot" false (Mcounter.snapshot_exact snap');
  let cold = Mcounter.plan model Choices.Greedy ~budget:tiny ~source:0 ~start:1 in
  Alcotest.(check string) "cold schedule bytes"
    (Mlbs_server.Codec.schedule_bytes cold)
    (Mlbs_server.Codec.schedule_bytes seeded)

(* ---------------------- pinned search work ------------------------ *)

(* The search's work on a fixed grid of paper deployments (source 0,
   start 1): evaluated finish, exactness and states (every expanded
   node, including those refuted with a bound), and the exact memo
   entries a cold plan's snapshot holds. A change that only reorganises
   the search leaves every row as it is; a change to what the search
   expands updates the rows on purpose. *)
let opt = Choices.All { max_sets = 64 }

let pinned =
  let d = Mcounter.default_budget in
  let capped k = { d with Mcounter.max_states = k } in
  (* phy, rate (0 = sync), policy, space, budget, (finish, exact, states, entries) *)
  [
    ("udg", 0, "G-OPT", Choices.Greedy, d, (8, true, 8, 8));
    ("udg", 0, "OPT", opt, d, (8, true, 8, 8));
    ("udg", 4, "G-OPT", Choices.Greedy, d, (16, true, 44, 13));
    ("udg", 4, "OPT", opt, d, (16, true, 40, 13));
    ("mc:2", 0, "G-OPT", Choices.Greedy, d, (8, true, 8, 8));
    ("mc:2", 0, "OPT", opt, d, (8, true, 8, 8));
    ("mc:2", 4, "G-OPT", Choices.Greedy, d, (16, true, 27, 13));
    ("mc:2", 4, "OPT", opt, d, (16, true, 21, 13));
    ("sinr", 0, "G-OPT", Choices.Greedy, d, (9, true, 78, 9));
    ("sinr", 0, "OPT", opt, d, (8, true, 23, 12));
    ("sinr", 4, "G-OPT", Choices.Greedy, d, (16, true, 54, 13));
    ("sinr", 4, "OPT", opt, d, (16, true, 41, 13));
    ("sinr", 4, "G-OPT", Choices.Greedy, capped 30, (16, false, 31, 8));
    ("sinr", 0, "OPT", opt, capped 20, (8, false, 21, 9));
  ]

(* [f ()] with the metrics registry on and reset, and the value of the
   counter [name] it leaves. *)
let counting name f =
  Obs.enable ~metrics:true ();
  Metrics.reset ();
  let r = Fun.protect ~finally:Obs.disable f in
  (r, Metrics.counter_value name)

let pinned_case (phy, rate, policy, space, budget, (finish, exact, states, entries)) =
  let name =
    Printf.sprintf "%s %s %s%s" phy
      (if rate = 0 then "sync" else Printf.sprintf "r=%d" rate)
      policy
      (if budget = Mcounter.default_budget then ""
       else Printf.sprintf " max_states=%d" budget.Mcounter.max_states)
  in
  Alcotest.test_case name `Quick (fun () ->
      let model = paper_model ~phy ~rate in
      let e =
        Mcounter.evaluate model space ~budget ~w:(Model.initial_w model ~source:0) ~slot:1
      in
      Alcotest.(check int) "finish" finish e.Mcounter.finish;
      Alcotest.(check bool) "exact" exact e.Mcounter.exact;
      Alcotest.(check int) "states" states e.Mcounter.states;
      let _, snap = Mcounter.plan_snapshot model space ~budget ~source:0 ~start:1 in
      Alcotest.(check int) "snapshot entries" entries (Mcounter.snapshot_entries snap);
      (* An exact plan replays the moves its root search stored, so it
         runs Algorithm 1 once per expanded position and never again. *)
      if exact && space = Choices.Greedy then begin
        let _, colourings =
          counting "search/color_selections" (fun () ->
              Mcounter.plan model space ~budget ~source:0 ~start:1)
        in
        Alcotest.(check int) "colourings = states" states colourings
      end)

(* -------------------- replay = candidate fold --------------------- *)

(* A plan replays the advance its search stored with each exact entry.
   Snapshot seeds hold no move, so the same plan seeded with its own
   snapshot chooses every advance with the candidate fold: the oracle.
   Both must give the same bytes, under every interference backend,
   both systems and both choice spaces. The seeded run must also really
   fold: it colours at least once per step. *)
let gen_replay =
  QCheck2.Gen.(
    let* n = int_range 6 16 in
    let* seed = int_bound 100000 in
    let* phy = oneofl [ "udg"; "sinr"; "mc:2" ] in
    let* rate = oneofl [ 0; 4 ] in
    let* greedy = bool in
    return (n, seed, phy, rate, greedy))

let print_replay (n, seed, phy, rate, greedy) =
  Printf.sprintf "n=%d seed=%d %s %s %s" n seed phy
    (if rate = 0 then "sync" else Printf.sprintf "r=%d" rate)
    (if greedy then "Greedy" else "All 64")

let replay_is_fold (n, seed, phy, rate, greedy) =
  let net = Test_support.sparse_network ~n ~seed in
  let system =
    if rate = 0 then Model.Sync
    else Model.Async (Mlbs_dutycycle.Wake_schedule.create ~rate ~n_nodes:n ~seed ())
  in
  let phy = Result.get_ok (Mlbs_phy.Interference.parse phy) in
  let model = Model.create ~phy net system in
  let space = if greedy then Choices.Greedy else opt in
  let budget = Mcounter.default_budget in
  let bytes = Mlbs_server.Codec.schedule_bytes in
  let replayed = Mcounter.plan model space ~budget ~source:0 ~start:1 in
  let _, snap = Mcounter.plan_snapshot model space ~budget ~source:0 ~start:1 in
  let (folded, _), colourings =
    counting "search/color_selections" (fun () ->
        Mcounter.plan_snapshot ~seeds:(snap, fun _ -> true) model space ~budget ~source:0
          ~start:1)
  in
  let steps = List.length (Schedule.steps folded) in
  if bytes replayed <> bytes folded then QCheck2.Test.fail_report "replay differs from the fold"
  else if greedy && colourings < steps then
    QCheck2.Test.fail_reportf "seeded plan coloured %d times in %d steps" colourings steps
  else true

(* ------------------------ properties ------------------------------ *)

let prop ?(count = 60) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_sync = Test_support.gen_sync_model
let gen_async = Test_support.gen_async_model

let initial model = Model.initial_w model ~source:0

(* Monotonicity holds in the whole maximal-set space, where a schedule
   from W replays from any W' ⊇ W. The greedy classes are rebuilt from
   each W and are not monotone (test_bounds.ml pins a counterexample). *)
let monotone (model, seed) =
  let space = Choices.All { max_sets = 4096 } in
  let w = initial model in
  let n = Model.n_nodes model in
  let extra = seed mod n in
  let w' = Bitset.copy w in
  Bitset.add w' extra;
  let m1 = eval model space ~w ~slot:1 in
  let m2 = eval model space ~w:w' ~slot:1 in
  (not (m1.Mcounter.exact && m2.Mcounter.exact)) || m2.Mcounter.finish <= m1.Mcounter.finish

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
    prop "monotone: informing one more node never hurts" gen_sync monotone;
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
        match Walk.next_active_slot model ~w ~after:0 with
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
    prop ~count:100 "monotone on sparse deployments (OPT space)"
      Test_support.gen_sparse_sync_model monotone;
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:120 ~name:"plan replay = seeded candidate fold"
         ~print:print_replay gen_replay replay_is_fold);
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
          Alcotest.test_case "seeded exhaustion restarts" `Quick
            test_seeded_exhaustion_restarts;
        ] );
      ("properties", props);
      ("pinned", List.map pinned_case pinned);
    ]
