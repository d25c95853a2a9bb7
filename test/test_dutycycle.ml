module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Cwt = Mlbs_dutycycle.Cwt

let test_explicit_basics () =
  let s = Wake_schedule.of_explicit ~rate:10 [| [ 2 ]; [ 4; 13 ] |] in
  Alcotest.(check int) "rate" 10 (Wake_schedule.rate s);
  Alcotest.(check int) "n_nodes" 2 (Wake_schedule.n_nodes s);
  Alcotest.(check bool) "node 0 awake at 2" true (Wake_schedule.awake s 0 ~slot:2);
  Alcotest.(check bool) "node 0 asleep at 3" false (Wake_schedule.awake s 0 ~slot:3);
  Alcotest.(check bool) "node 1 awake at 4" true (Wake_schedule.awake s 1 ~slot:4);
  Alcotest.(check bool) "node 1 asleep at 12" false (Wake_schedule.awake s 1 ~slot:12);
  Alcotest.(check bool) "node 1 awake at 13" true (Wake_schedule.awake s 1 ~slot:13)

let test_explicit_tail_repeats () =
  let s = Wake_schedule.of_explicit ~rate:10 [| [ 2 ] |] in
  (* After the last listed slot, the schedule repeats every rate slots. *)
  Alcotest.(check bool) "awake at 12" true (Wake_schedule.awake s 0 ~slot:12);
  Alcotest.(check bool) "awake at 22" true (Wake_schedule.awake s 0 ~slot:22);
  Alcotest.(check bool) "asleep at 15" false (Wake_schedule.awake s 0 ~slot:15);
  Alcotest.(check int) "next after 2" 12 (Wake_schedule.next_wake s 0 ~after:2);
  Alcotest.(check int) "next after 21" 22 (Wake_schedule.next_wake s 0 ~after:21)

let test_explicit_validation () =
  Alcotest.check_raises "empty slots"
    (Invalid_argument "Wake_schedule.of_explicit: node 0 has no wake slots") (fun () ->
      ignore (Wake_schedule.of_explicit ~rate:5 [| [] |]));
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Wake_schedule.of_explicit: node 0 slots not increasing") (fun () ->
      ignore (Wake_schedule.of_explicit ~rate:5 [| [ 3; 3 ] |]))

let test_create_validation () =
  Alcotest.check_raises "rate" (Invalid_argument "Wake_schedule.create: rate < 1")
    (fun () -> ignore (Wake_schedule.create ~rate:0 ~n_nodes:1 ~seed:1 ()))

let test_uniform_one_per_frame () =
  let s = Wake_schedule.create ~rate:7 ~n_nodes:20 ~seed:42 () in
  for u = 0 to 19 do
    for frame = 0 to 9 do
      let lo = (frame * 7) + 1 and hi = (frame + 1) * 7 in
      let wakes = Wake_schedule.wakes_in s u ~from_:lo ~until:hi in
      Alcotest.(check int)
        (Printf.sprintf "node %d frame %d has one wake" u frame)
        1 (List.length wakes)
    done
  done

let test_determinism () =
  let a = Wake_schedule.create ~rate:10 ~n_nodes:5 ~seed:9 () in
  let b = Wake_schedule.create ~rate:10 ~n_nodes:5 ~seed:9 () in
  for u = 0 to 4 do
    Alcotest.(check (list int)) "same wakes"
      (Wake_schedule.wakes_in a u ~from_:1 ~until:100)
      (Wake_schedule.wakes_in b u ~from_:1 ~until:100)
  done

let test_seeds_differ () =
  let a = Wake_schedule.create ~rate:10 ~n_nodes:8 ~seed:1 () in
  let b = Wake_schedule.create ~rate:10 ~n_nodes:8 ~seed:2 () in
  let wakes s = List.init 8 (fun u -> Wake_schedule.wakes_in s u ~from_:1 ~until:200) in
  Alcotest.(check bool) "different schedules" true (wakes a <> wakes b)

let test_fixed_phase_period () =
  let s =
    Wake_schedule.create ~family:Wake_schedule.Fixed_phase ~rate:6 ~n_nodes:4 ~seed:3 ()
  in
  for u = 0 to 3 do
    let w1 = Wake_schedule.next_wake s u ~after:0 in
    let w2 = Wake_schedule.next_wake s u ~after:w1 in
    Alcotest.(check int) "fixed interval" 6 (w2 - w1)
  done

let test_bernoulli_rate () =
  let rate = 10 in
  let s =
    Wake_schedule.create ~family:Wake_schedule.Bernoulli ~rate ~n_nodes:1 ~seed:5 ()
  in
  let horizon = 20000 in
  let wakes = List.length (Wake_schedule.wakes_in s 0 ~from_:1 ~until:horizon) in
  let expected = horizon / rate in
  Alcotest.(check bool)
    (Printf.sprintf "%d wakes near %d" wakes expected)
    true
    (wakes > expected * 8 / 10 && wakes < expected * 12 / 10)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

let gen_sched =
  QCheck2.Gen.(
    let* family =
      oneofl
        [ Wake_schedule.Uniform_per_frame; Wake_schedule.Bernoulli; Wake_schedule.Fixed_phase ]
    in
    let* rate = int_range 1 20 in
    let* seed = int_bound 10000 in
    return (Wake_schedule.create ~family ~rate ~n_nodes:4 ~seed ()))

let props =
  [
    prop "next_wake is awake and future" QCheck2.Gen.(pair gen_sched (int_bound 200))
      (fun (s, after) ->
        let w = Wake_schedule.next_wake s 0 ~after in
        w > after && Wake_schedule.awake s 0 ~slot:w);
    prop "no wake strictly between after and next_wake"
      QCheck2.Gen.(pair gen_sched (int_bound 100))
      (fun (s, after) ->
        let w = Wake_schedule.next_wake s 0 ~after in
        Wake_schedule.wakes_in s 0 ~from_:(after + 1) ~until:(w - 1) = []);
    prop "wakes_in agrees with awake" QCheck2.Gen.(pair gen_sched (int_bound 60))
      (fun (s, until) ->
        let until = until + 1 in
        let listed = Wake_schedule.wakes_in s 0 ~from_:1 ~until in
        let scanned =
          List.filter
            (fun t -> Wake_schedule.awake s 0 ~slot:t)
            (List.init until (fun i -> i + 1))
        in
        listed = scanned);
    prop "cwt positive" QCheck2.Gen.(pair gen_sched (int_bound 100))
      (fun (s, at) -> Cwt.wait s ~at 1 >= 1);
  ]

let test_cwt_helpers () =
  Alcotest.(check (float 1e-9)) "expected" 5.5 (Cwt.expected_wait ~rate:10);
  Alcotest.(check int) "max" 20 (Cwt.max_wait ~rate:10)

let () =
  Alcotest.run "dutycycle"
    [
      ( "explicit",
        [
          Alcotest.test_case "basics" `Quick test_explicit_basics;
          Alcotest.test_case "tail" `Quick test_explicit_tail_repeats;
          Alcotest.test_case "validation" `Quick test_explicit_validation;
        ] );
      ( "generated",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "uniform one per frame" `Quick test_uniform_one_per_frame;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "fixed phase" `Quick test_fixed_phase_period;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
        ] );
      ("cwt", [ Alcotest.test_case "helpers" `Quick test_cwt_helpers ]);
      ("properties", props);
    ]
