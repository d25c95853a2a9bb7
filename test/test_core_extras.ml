(* Coverage for the smaller core APIs: Choices, Trace, the G-OPT/OPT
   scheduler entry points, and async exact search on hand-built wake
   schedules. *)

module Bitset = Mlbs_util.Bitset
module Model = Mlbs_core.Model
module Choices = Mlbs_core.Choices
module Trace = Mlbs_core.Trace
module Scheduler = Mlbs_core.Scheduler
module Mcounter = Mlbs_core.Mcounter
module Schedule = Mlbs_core.Schedule
module Fixtures = Mlbs_workload.Fixtures
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Point = Mlbs_geom.Point

let fig1_model () = Model.create Fixtures.fig1.Fixtures.net Model.Sync

(* ---------------------------- choices ------------------------------ *)

let test_choices_greedy_equals_model () =
  let m = fig1_model () in
  let w = Bitset.of_list 12 [ 11; 0; 1; 2 ] in
  Alcotest.(check (list (list int))) "same classes"
    (Model.greedy_classes m ~w ~slot:1)
    (Choices.enumerate m Choices.Greedy ~w ~slot:1)

let test_choices_all_are_maximal_and_conflict_free () =
  let m = fig1_model () in
  let w = Bitset.of_list 12 [ 11; 0; 1; 2; 3; 4; 10 ] in
  let sets = Choices.enumerate m (Choices.All { max_sets = 64 }) ~w ~slot:1 in
  let cands = Model.candidates m ~w ~slot:1 in
  Alcotest.(check bool) "nonempty" true (sets <> []);
  List.iter
    (fun s ->
      (* Conflict-free internally... *)
      List.iter
        (fun u ->
          List.iter
            (fun v ->
              if u <> v then
                Alcotest.(check bool) "no conflict" false (Model.conflicts m ~w u v))
            s)
        s;
      (* ...and maximal: every other candidate conflicts with a member. *)
      List.iter
        (fun c ->
          if not (List.mem c s) then
            Alcotest.(check bool)
              (Printf.sprintf "candidate %d blocked" c)
              true
              (List.exists (fun u -> Model.conflicts m ~w u c) s))
        cands)
    sets

let test_choices_all_cap_respected () =
  let m = fig1_model () in
  let w = Bitset.of_list 12 [ 11; 0; 1; 2; 3; 4; 10 ] in
  let sets = Choices.enumerate m (Choices.All { max_sets = 1 }) ~w ~slot:1 in
  Alcotest.(check int) "capped" 1 (List.length sets)

let test_choices_empty_when_complete () =
  let m = fig1_model () in
  let w = Bitset.full 12 in
  Alcotest.(check (list (list int))) "no candidates" []
    (Choices.enumerate m Choices.Greedy ~w ~slot:1)

(* ----------------------------- trace ------------------------------- *)

let test_trace_schedule_consistency () =
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let t = Trace.run m Choices.Greedy ~source ~start in
  (* One row per schedule step, and each row's chosen class matches the
     step's senders. *)
  let steps = Schedule.steps t.Trace.schedule in
  Alcotest.(check int) "row count" (List.length steps) (List.length t.Trace.rows);
  List.iter2
    (fun row step ->
      let chosen = (List.nth row.Trace.classes row.Trace.chosen).Trace.members in
      Alcotest.(check (list int)) "chosen = senders" step.Schedule.senders chosen;
      Alcotest.(check (list int)) "advance = informed" step.Schedule.informed
        row.Trace.advance;
      Alcotest.(check int) "slots align" step.Schedule.slot row.Trace.slot)
    t.Trace.rows steps

let test_trace_chosen_minimizes_m () =
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let t = Trace.run m Choices.Greedy ~source ~start in
  List.iter
    (fun row ->
      let best =
        List.fold_left (fun acc e -> min acc e.Trace.m_value) max_int row.Trace.classes
      in
      Alcotest.(check int) "chosen has minimal M" best
        (List.nth row.Trace.classes row.Trace.chosen).Trace.m_value)
    t.Trace.rows

let test_trace_render_custom_names () =
  let { Fixtures.net; source; start; name } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let t = Trace.run m Choices.Greedy ~source ~start in
  let s = Trace.render ~node_name:name t in
  Alcotest.(check bool) "uses 's' label" true
    (String.length s > 0
    &&
    let found = ref false in
    String.iteri (fun i c -> if c = 's' && i > 0 && s.[i - 1] = '{' then found := true) s;
    !found)

(* ------------------ G-OPT/OPT entry points ------------------------- *)

let test_finish_wrappers_agree_with_plans () =
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let finish space =
    Mcounter.evaluate m space ~budget:Mcounter.default_budget
      ~w:(Model.initial_w m ~source) ~slot:start
  in
  let ge = finish Choices.Greedy in
  let gp = Scheduler.run m Scheduler.gopt ~source ~start in
  Alcotest.(check int) "gopt" (Schedule.finish gp) ge.Mcounter.finish;
  let oe = finish (Choices.All { max_sets = 64 }) in
  let op = Scheduler.run m Scheduler.opt ~source ~start in
  Alcotest.(check int) "opt" (Schedule.finish op) oe.Mcounter.finish;
  Alcotest.(check bool) "opt <= gopt" true (oe.Mcounter.finish <= ge.Mcounter.finish)

(* ---------------------- async exact search ------------------------- *)

(* A 4-node path 0-1-2-3 where the scheduler must decide at slot 1
   whether to use node 1's rare wake: schedules are built so that greedy
   relaying is forced through specific slots, making the exact finish
   predictable by hand:
     T(0) = {1}, T(1) = {2}, T(2) = {4}, T(3) = {9}.
   0 sends at 1 (informs 1); 1 sends at 2 (informs 2); 2 sends at 4
   (informs 3): finish = 4. *)
let test_async_exact_path () =
  let points = Array.init 4 (fun i -> Point.v (float_of_int i *. 8.) 0.) in
  let net = Mlbs_wsn.Network.create ~radius:10. points in
  let sched = Wake_schedule.of_explicit ~rate:10 [| [ 1 ]; [ 2 ]; [ 4 ]; [ 9 ] |] in
  let m = Model.create net (Model.Async sched) in
  let e =
    Mcounter.evaluate m Choices.Greedy
      ~budget:{ Mcounter.max_states = 10000; lookahead = 2; beam = 4 }
      ~w:(Model.initial_w m ~source:0) ~slot:1
  in
  Alcotest.(check bool) "exact" true e.Mcounter.exact;
  Alcotest.(check int) "finish" 4 e.Mcounter.finish;
  let plan =
    Mcounter.plan m Choices.Greedy
      ~budget:{ Mcounter.max_states = 10000; lookahead = 2; beam = 4 }
      ~source:0 ~start:1
  in
  Alcotest.(check (list int)) "transmission slots" [ 1; 2; 4 ]
    (List.map (fun s -> s.Schedule.slot) (Schedule.steps plan))

(* A missed wake costs a full frame: same path, but the source's first
   wake is after node 1's slot-2 wake, so node 1 cannot relay before its
   next wake at slot 12. *)
let test_async_missed_wake () =
  let points = Array.init 3 (fun i -> Point.v (float_of_int i *. 8.) 0.) in
  let net = Mlbs_wsn.Network.create ~radius:10. points in
  let sched = Wake_schedule.of_explicit ~rate:10 [| [ 3 ]; [ 2; 12 ]; [ 20 ] |] in
  let m = Model.create net (Model.Async sched) in
  let e =
    Mcounter.evaluate m Choices.Greedy
      ~budget:{ Mcounter.max_states = 10000; lookahead = 2; beam = 4 }
      ~w:(Model.initial_w m ~source:0) ~slot:1
  in
  (* 0 wakes at 3 (informs 1); 1's next wake is 12 (informs 2): 12. *)
  Alcotest.(check int) "finish" 12 e.Mcounter.finish

let () =
  Alcotest.run "core_extras"
    [
      ( "choices",
        [
          Alcotest.test_case "greedy = model classes" `Quick test_choices_greedy_equals_model;
          Alcotest.test_case "all: maximal conflict-free" `Quick
            test_choices_all_are_maximal_and_conflict_free;
          Alcotest.test_case "all: cap" `Quick test_choices_all_cap_respected;
          Alcotest.test_case "complete: empty" `Quick test_choices_empty_when_complete;
        ] );
      ( "trace",
        [
          Alcotest.test_case "schedule consistency" `Quick test_trace_schedule_consistency;
          Alcotest.test_case "chosen minimizes M" `Quick test_trace_chosen_minimizes_m;
          Alcotest.test_case "custom names" `Quick test_trace_render_custom_names;
        ] );
      ( "wrappers",
        [ Alcotest.test_case "finish = plan finish" `Quick test_finish_wrappers_agree_with_plans ] );
      ( "async exact",
        [
          Alcotest.test_case "path schedule" `Quick test_async_exact_path;
          Alcotest.test_case "missed wake" `Quick test_async_missed_wake;
        ] );
    ]
