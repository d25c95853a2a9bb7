module Bitset = Mlbs_util.Bitset
module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Scheduler = Mlbs_core.Scheduler
module Radio = Mlbs_sim.Radio
module Validate = Mlbs_sim.Validate
module Fault = Mlbs_sim.Fault
module Fixtures = Mlbs_workload.Fixtures
module Wake_schedule = Mlbs_dutycycle.Wake_schedule

let fig2_model () = Model.create Fixtures.fig2.Fixtures.net Model.Sync

(* Hand-built schedules over the Figure 2 graph (nodes 1..5 = ids 0..4;
   edges 0-1, 0-2, 1-3, 2-3, 1-4). *)
let mk steps = Schedule.make ~n_nodes:5 ~source:0 ~start:1 steps

let good_schedule () =
  mk
    [
      { Schedule.slot = 1; senders = [ 0 ]; informed = [ 1; 2 ] };
      { Schedule.slot = 2; senders = [ 1 ]; informed = [ 3; 4 ] };
    ]

let test_valid_schedule_passes () =
  let m = fig2_model () in
  let r = Validate.check m (good_schedule ()) in
  Alcotest.(check bool) "ok" true r.Validate.ok;
  Alcotest.(check int) "no collisions" 0 r.Validate.collisions;
  Alcotest.(check (list int)) "none missing" [] r.Validate.missing

let test_collision_detected () =
  (* 1 and 2 both transmit at slot 2: they share the uninformed
     neighbour 3, which must observe a collision and stay uninformed. *)
  let m = fig2_model () in
  let s =
    mk
      [
        { Schedule.slot = 1; senders = [ 0 ]; informed = [ 1; 2 ] };
        { Schedule.slot = 2; senders = [ 1; 2 ]; informed = [ 4 ] };
      ]
  in
  let outcome = Radio.replay m s in
  let collided =
    List.concat_map (fun e -> List.map fst e.Radio.collided) outcome.Radio.events
  in
  Alcotest.(check (list int)) "node 3 collided" [ 3 ] collided;
  Alcotest.(check bool) "3 stays uninformed" false (Bitset.mem outcome.Radio.informed 3);
  let r = Validate.check m s in
  Alcotest.(check bool) "invalid" false r.Validate.ok;
  Alcotest.(check int) "one collision" 1 r.Validate.collisions;
  Alcotest.(check (list int)) "3 missing" [ 3 ] r.Validate.missing

let test_uninformed_sender_detected () =
  let m = fig2_model () in
  let s = mk [ { Schedule.slot = 1; senders = [ 3 ]; informed = [ 1; 2 ] } ] in
  let r = Validate.check m s in
  Alcotest.(check bool) "invalid" false r.Validate.ok;
  Alcotest.(check bool) "mentions the sender" true
    (List.exists
       (fun v -> v = "slot 1: sender 3 does not hold the message")
       r.Validate.violations)

let test_duplicate_transmission_detected () =
  let m = fig2_model () in
  let s =
    mk
      [
        { Schedule.slot = 1; senders = [ 0 ]; informed = [ 1; 2 ] };
        { Schedule.slot = 2; senders = [ 0 ]; informed = [] };
        { Schedule.slot = 3; senders = [ 1 ]; informed = [ 3; 4 ] };
      ]
  in
  let r = Validate.check m s in
  Alcotest.(check bool) "invalid" false r.Validate.ok;
  Alcotest.(check bool) "duplicate flagged" true
    (List.exists (fun v -> v = "slot 2: sender 0 already transmitted") r.Validate.violations)

let test_asleep_sender_detected () =
  let fixture, sched = Fixtures.fig2_dc in
  let m = Model.create fixture.Fixtures.net (Model.Async sched) in
  (* Node 2 (id 1) is asleep at slot 3 — it only wakes at 4 and 13. *)
  let s =
    Schedule.make ~n_nodes:5 ~source:0 ~start:2
      [
        { Schedule.slot = 2; senders = [ 0 ]; informed = [ 1; 2 ] };
        { Schedule.slot = 3; senders = [ 1 ]; informed = [ 3; 4 ] };
      ]
  in
  let r = Validate.check m s in
  Alcotest.(check bool) "invalid" false r.Validate.ok;
  Alcotest.(check bool) "asleep flagged" true
    (List.exists (fun v -> v = "slot 3: sender 1 is asleep") r.Validate.violations)

let test_claim_mismatch_detected () =
  let m = fig2_model () in
  let s = mk [ { Schedule.slot = 1; senders = [ 0 ]; informed = [ 1 ] } ] in
  (* The radio informs {1,2}; the claim says {1} only. *)
  let r = Validate.check m s in
  Alcotest.(check bool) "claim mismatch flagged" true
    (List.exists
       (fun v -> v = "slot 1: claimed informed set differs from radio outcome")
       r.Validate.violations)

let test_incomplete_detected () =
  let m = fig2_model () in
  let s = mk [ { Schedule.slot = 1; senders = [ 0 ]; informed = [ 1; 2 ] } ] in
  let r = Validate.check m s in
  Alcotest.(check bool) "invalid" false r.Validate.ok;
  Alcotest.(check (list int)) "3 and 4 missing" [ 3; 4 ] r.Validate.missing

let test_check_exn_message () =
  let m = fig2_model () in
  let s = mk [ { Schedule.slot = 1; senders = [ 0 ]; informed = [ 1; 2 ] } ] in
  Alcotest.check_raises "raises"
    (Failure "Validate.check_exn: invalid schedule: 2 nodes never informed") (fun () ->
      Validate.check_exn m s)

(* ---------------------- failure injection -------------------------- *)

(* A plan whose [victims] crash before the first slot and never
   recover: the permanent-failure case of the fault model. *)
let crash_plan victims =
  Fault.make
    {
      Fault.loss = Fault.No_loss;
      crashes = List.map (fun node -> { Fault.node; at = 0; recover = None }) victims;
      wake_jitter = 0;
      seed = 0;
    }

let test_failure_injection_fig1 () =
  (* Kill the magenta relay (node 1) of the optimal Figure 1 schedule:
     slot 2's transmission is dropped, so node 4 never gets the message
     and cannot relay at slot 3 (it holds nothing); node 0's relay still
     delivers {3,5,6,7}. Exactly {4,8,9,10} of the alive nodes are
     stranded. *)
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let plan = Scheduler.run m Scheduler.gopt ~source ~start in
  let faults = crash_plan [ 1 ] in
  let r = Validate.check_under_faults m ~faults plan in
  Alcotest.(check int) "alive" 11 r.Validate.alive;
  Alcotest.(check int) "alive informed" 7 r.Validate.delivered;
  Alcotest.(check bool) "receptions conflict-free" true r.Validate.ok;
  (* The crashed relay's send is dropped, and so is the send of the
     relay it left without the message. *)
  let outcome = Radio.replay ~faults m plan in
  Alcotest.(check (list (pair int int))) "dropped sends" [ (2, 1); (3, 4) ]
    outcome.Radio.dropped

let test_failure_of_leaf_harmless () =
  (* Node 5 never relays in the fig1 optimum; killing it costs only
     itself. *)
  let { Fixtures.net; source; start; _ } = Fixtures.fig1 in
  let m = Model.create net Model.Sync in
  let plan = Scheduler.run m Scheduler.gopt ~source ~start in
  let r = Validate.check_under_faults m ~faults:(crash_plan [ 5 ]) plan in
  Alcotest.(check int) "alive" 11 r.Validate.alive;
  Alcotest.(check int) "everyone else informed" 11 r.Validate.delivered

let test_no_failures_matches_plain_replay () =
  (* An empty crash plan is the no-op plan: the replay is the plain one. *)
  let m = fig2_model () in
  let s = good_schedule () in
  let plain = Radio.replay m s in
  let with_empty = Radio.replay ~faults:(crash_plan []) m s in
  Alcotest.(check (list int)) "same informed"
    (Bitset.elements plain.Radio.informed)
    (Bitset.elements with_empty.Radio.informed);
  Alcotest.(check int) "nothing dropped" 0 (List.length with_empty.Radio.dropped);
  Alcotest.(check (list string)) "same verdicts" plain.Radio.violations
    with_empty.Radio.violations

let test_schedule_make_validation () =
  Alcotest.check_raises "decreasing slots"
    (Invalid_argument "Schedule.make: slots not strictly increasing") (fun () ->
      ignore
        (mk
           [
             { Schedule.slot = 2; senders = [ 0 ]; informed = [] };
             { Schedule.slot = 2; senders = [ 1 ]; informed = [] };
           ]));
  Alcotest.check_raises "empty senders"
    (Invalid_argument "Schedule.make: empty sender step") (fun () ->
      ignore (mk [ { Schedule.slot = 1; senders = []; informed = [] } ]))

let test_schedule_accessors () =
  let s = good_schedule () in
  Alcotest.(check int) "start" 1 (Schedule.start s);
  Alcotest.(check int) "finish" 2 (Schedule.finish s);
  Alcotest.(check int) "elapsed" 2 (Schedule.elapsed s);
  Alcotest.(check int) "transmissions" 2 (Schedule.n_transmissions s);
  Alcotest.(check bool) "covers all" true (Schedule.covers_all s);
  Alcotest.(check (list int)) "informed after slot 1" [ 0; 1; 2 ]
    (Bitset.elements (Schedule.informed_after s ~slot:1));
  let empty = mk [] in
  Alcotest.(check int) "empty schedule elapsed 0" 0 (Schedule.elapsed empty)

let () =
  Alcotest.run "sim"
    [
      ( "radio",
        [
          Alcotest.test_case "valid passes" `Quick test_valid_schedule_passes;
          Alcotest.test_case "collision" `Quick test_collision_detected;
          Alcotest.test_case "uninformed sender" `Quick test_uninformed_sender_detected;
          Alcotest.test_case "duplicate transmission" `Quick test_duplicate_transmission_detected;
          Alcotest.test_case "asleep sender" `Quick test_asleep_sender_detected;
          Alcotest.test_case "claim mismatch" `Quick test_claim_mismatch_detected;
          Alcotest.test_case "incomplete" `Quick test_incomplete_detected;
          Alcotest.test_case "check_exn" `Quick test_check_exn_message;
        ] );
      ( "failure injection",
        [
          Alcotest.test_case "kill a relay" `Quick test_failure_injection_fig1;
          Alcotest.test_case "kill a leaf" `Quick test_failure_of_leaf_harmless;
          Alcotest.test_case "empty failure set" `Quick test_no_failures_matches_plain_replay;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "make validation" `Quick test_schedule_make_validation;
          Alcotest.test_case "accessors" `Quick test_schedule_accessors;
        ] );
    ]
