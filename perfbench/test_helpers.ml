(* Tests of the benchmark's own helpers. *)
open Perfbench_helpers

let close a b = Float.abs (a -. b) < 1e-9
let check_float msg a b = Alcotest.(check bool) (Printf.sprintf "%s: %g = %g" msg a b) true (close a b)

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q1, m, q3 = Helpers.quartiles [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  check_float "q1" q1 2.75;
  check_float "median" m 5.5;
  check_float "q3" q3 8.25;
  let q1, m, q3 = Helpers.quartiles [ 3.; 1.; 2. ] in
  check_float "q1 of 3" q1 1.;
  check_float "median of 3" m 2.;
  check_float "q3 of 3" q3 3.;
  check_float "spread" (Helpers.spread [ 10.; 10.; 10.; 10. ]) 0.;
  check_float "spread 1..10" (Helpers.spread [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ])
    (5.5 /. 5.5)

let test_tail_rank () =
  let label n = let l, _, _ = Helpers.tail_rank n in l in
  Alcotest.(check string) "1000 samples -> p99" "p99" (label 1000);
  Alcotest.(check string) "9999 samples -> p99" "p99" (label 9999);
  Alcotest.(check string) "10000 samples -> p99.9" "p99.9" (label 10000);
  Alcotest.(check string) "100 samples -> p90" "p90" (label 100);
  Alcotest.(check string) "99 samples -> p75" "p75" (label 99);
  Alcotest.(check string) "few samples fall back to p50" "p50" (label 7);
  for n = 1 to 3000 do
    let _, p, b = Helpers.tail_rank n in
    if n >= 20 then Alcotest.(check bool) "ten beyond" true (b >= 10);
    Alcotest.(check int) "beyond matches" b (Helpers.beyond ~n p)
  done;
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  check_float "p99 of 1..1000" (Helpers.percentile a (99, 100)) 990.;
  check_float "p99.9 of 1..1000" (Helpers.percentile a (999, 1000)) 999.;
  check_float "p50 of 1..1000" (Helpers.percentile a (50, 100)) 500.

let test_zipf () =
  let z = Helpers.zipf ~n:64 ~s:1.0 in
  let draws seed =
    let rng = Mlbs_prng.Rng.create seed in
    List.init 5000 (fun _ -> Helpers.zipf_draw z (Mlbs_prng.Rng.float rng 1.0))
  in
  Alcotest.(check (list int)) "same seed, same ranks" (draws 7) (draws 7);
  Alcotest.(check bool) "another seed, other ranks" true (draws 7 <> draws 8);
  let d = draws 11 in
  Alcotest.(check bool) "ranks in range" true (List.for_all (fun k -> k >= 0 && k < 64) d);
  let count k = List.length (List.filter (( = ) k) d) in
  Alcotest.(check bool) "rank 0 hottest" true (count 0 > count 1 && count 1 > count 10);
  Alcotest.(check int) "u = 0 is rank 0" 0 (Helpers.zipf_draw z 0.);
  Alcotest.(check int) "u -> 1 is the last rank" 63 (Helpers.zipf_draw z 0.9999999999)

let test_digest () =
  let a = Helpers.digest_lines [ "a"; "b" ] in
  Alcotest.(check string) "deterministic" a (Helpers.digest_lines [ "a"; "b" ]);
  Alcotest.(check bool) "order matters" true (a <> Helpers.digest_lines [ "b"; "a" ])

let test_coverage () =
  check_float "no children" (Helpers.self_time ~t0:0. ~t1:10. []) 10.;
  check_float "disjoint children"
    (Helpers.self_time ~t0:0. ~t1:10. [ (1., 3.); (5., 6.) ]) 7.;
  check_float "overlap counted once"
    (Helpers.self_time ~t0:0. ~t1:10. [ (1., 4.); (2., 5.) ]) 6.;
  check_float "clipped to the parent"
    (Helpers.self_time ~t0:0. ~t1:10. [ (-5., 2.); (9., 20.) ]) 7.;
  check_float "fully covered" (Helpers.self_time ~t0:0. ~t1:10. [ (0., 10.) ]) 0.;
  check_float "coverage" (Helpers.coverage ~layers:[ 1.; 2.; 1. ] ~end_to_end:8.) 0.5;
  check_float "coverage of nothing" (Helpers.coverage ~layers:[ 1. ] ~end_to_end:0.) 0.

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "tail percentile selection" `Quick test_tail_rank;
          Alcotest.test_case "zipf sampler determinism" `Quick test_zipf;
          Alcotest.test_case "plan digest" `Quick test_digest;
          Alcotest.test_case "coverage arithmetic" `Quick test_coverage;
        ] );
    ]
