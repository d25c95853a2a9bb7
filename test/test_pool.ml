(* Pool: order preservation, exception routing, and the experiment
   engine's determinism guarantee — figure rows are byte-identical
   whether the sweep runs on one domain or several. *)

module Pool = Mlbs_util.Pool
module Config = Mlbs_workload.Config
module Figures = Mlbs_workload.Figures
module Report = Mlbs_workload.Report

let test_map_basic () =
  let input = Array.init 100 Fun.id in
  let expect = Array.map (fun x -> (x * x) + 1) input in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expect
        (Pool.map ~jobs (fun x -> (x * x) + 1) input))
    [ 1; 2; 4; 7 ]

let test_map_order_under_skew () =
  (* Early indices get the heaviest work, so with >1 worker the later
     indices finish first — results must still land in input order. *)
  let input = Array.init 32 (fun i -> 32 - i) in
  let busy_square n =
    let acc = ref 0 in
    for _ = 1 to n * 10_000 do
      acc := (!acc + n) mod 1_000_003
    done;
    (n, !acc)
  in
  let serial = Pool.map ~jobs:1 busy_square input in
  let parallel = Pool.map ~jobs:4 busy_square input in
  Alcotest.(check bool) "order preserved" true (serial = parallel)

let test_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~jobs:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 7 |] (Pool.map ~jobs:4 (fun x -> x + 1) [| 6 |])

exception Boom of int

let test_exception_routing () =
  (* The lowest-indexed failure is re-raised, and the pool still drains
     the whole batch first (no deadlock, no poisoned workers). *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "first failure wins (jobs=%d)" jobs)
        (Boom 3)
        (fun () ->
          ignore
            (Pool.map ~jobs
               (fun x -> if x >= 3 then raise (Boom x) else x)
               (Array.init 16 Fun.id))))
    [ 1; 4 ]

let test_pool_reuse () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let a = Pool.map_on pool string_of_int (Array.init 12 Fun.id) in
      let b = Pool.map_on pool String.length a in
      Alcotest.(check (array int)) "second batch"
        [| 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 2; 2 |] b)

let test_shutdown_rejects () =
  let pool = Pool.create ~jobs:2 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.map_on: pool is shut down") (fun () ->
      ignore (Pool.map_on pool Fun.id (Array.init 4 Fun.id)))

(* A sweep small enough for CI: one node count, two seeds, tight search
   budgets. The rendered figure (table, chart, improvement lines) must
   match byte-for-byte across jobs settings. *)
let tiny_cfg =
  {
    Config.quick with
    Config.node_counts = [ 50 ];
    seeds = [ 1; 2 ];
    budget = { Mlbs_core.Mcounter.max_states = 200; lookahead = 1; beam = 2 };
    opt_max_sets = 8;
  }

let test_figure_rows_deterministic () =
  let render jobs = Report.render_figure (Figures.fig3 { tiny_cfg with Config.jobs = jobs }) in
  let one = render 1 in
  Alcotest.(check string) "jobs=4 identical to jobs=1" one (render 4);
  Alcotest.(check string) "jobs=2 identical to jobs=1" one (render 2)

let test_bounds_figure_deterministic () =
  (* fig5 exercises the analytical-bounds path (empty run results). *)
  let render jobs = Report.render_figure (Figures.fig5 { tiny_cfg with Config.jobs = jobs }) in
  Alcotest.(check string) "fig5 identical" (render 1) (render 4)

let () =
  Alcotest.run "pool"
    [
      ( "map",
        [
          Alcotest.test_case "basic" `Quick test_map_basic;
          Alcotest.test_case "order under skew" `Quick test_map_order_under_skew;
          Alcotest.test_case "empty/singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "exception routing" `Quick test_exception_routing;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "shutdown" `Quick test_shutdown_rejects;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "figure rows" `Quick test_figure_rows_deterministic;
          Alcotest.test_case "bounds figure" `Quick test_bounds_figure_deterministic;
        ] );
    ]
