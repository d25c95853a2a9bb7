module Bitset = Mlbs_util.Bitset
module Coloring = Test_support.Coloring
module Interference = Mlbs_phy.Interference
module Model = Mlbs_core.Model
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Fixtures = Mlbs_workload.Fixtures

(* Figure 2 of the paper: 1-2, 1-3, 2-4, 3-4, 2-5 (ids are labels-1). *)
let fig2_model () = Model.create Fixtures.fig2.Fixtures.net Model.Sync

let test_initial_w () =
  let m = fig2_model () in
  let w = Model.initial_w m ~source:0 in
  Alcotest.(check (list int)) "just the source" [ 0 ] (Bitset.elements w);
  Alcotest.check_raises "bad source" (Invalid_argument "Model.initial_w: source out of range")
    (fun () -> ignore (Model.initial_w m ~source:9))

let test_receivers () =
  let m = fig2_model () in
  let w = Bitset.of_list 5 [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "node 2's receivers" [ 3; 4 ] (Model.receivers m ~w 1);
  Alcotest.(check int) "count" 2 (Model.n_receivers m ~w 1);
  Alcotest.(check (list int)) "node 3's receivers" [ 3 ] (Model.receivers m ~w 2);
  Alcotest.(check (list int)) "source exhausted" [] (Model.receivers m ~w 0)

let test_candidates_sync () =
  let m = fig2_model () in
  let w = Bitset.of_list 5 [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "nodes with receivers" [ 1; 2 ] (Model.candidates m ~w ~slot:1);
  Alcotest.(check (list int)) "frontier same in sync" [ 1; 2 ] (Model.frontier m ~w)

let test_conflicts () =
  let m = fig2_model () in
  let w = Bitset.of_list 5 [ 0; 1; 2 ] in
  (* 2 and 3 share the uninformed neighbour 4. *)
  Alcotest.(check bool) "conflict at 4" true (Model.conflicts m ~w 1 2);
  Alcotest.(check bool) "symmetric" true (Model.conflicts m ~w 2 1);
  Alcotest.(check bool) "irreflexive" false (Model.conflicts m ~w 1 1);
  (* Once 4 is informed, the conflict disappears. *)
  let w' = Bitset.of_list 5 [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "no conflict once informed" false (Model.conflicts m ~w:w' 1 2)

let test_greedy_classes_fig2 () =
  let m = fig2_model () in
  let w = Bitset.of_list 5 [ 0; 1; 2 ] in
  (* Table II: C1 = {2} (two receivers), C2 = {3}. *)
  Alcotest.(check (list (list int))) "classes" [ [ 1 ]; [ 2 ] ]
    (Model.greedy_classes m ~w ~slot:1)

let test_apply () =
  let m = fig2_model () in
  let w = Bitset.of_list 5 [ 0; 1; 2 ] in
  let w' = Model.apply m ~w ~senders:[ 1 ] in
  Alcotest.(check (list int)) "node 2 informs 4 and 5" [ 0; 1; 2; 3; 4 ] (Bitset.elements w');
  Alcotest.(check (list int)) "w untouched" [ 0; 1; 2 ] (Bitset.elements w);
  Alcotest.(check (list int)) "newly informed" [ 3; 4 ]
    (Model.newly_informed m ~w ~senders:[ 1 ]);
  Alcotest.check_raises "uninformed sender"
    (Invalid_argument "Model.apply: sender 3 not informed") (fun () ->
      ignore (Model.apply m ~w ~senders:[ 3 ]))

let test_async_candidates_gated () =
  let fixture, sched = Fixtures.fig2_dc in
  let m = Model.create fixture.Fixtures.net (Model.Async sched) in
  let w = Bitset.of_list 5 [ 0; 1; 2 ] in
  (* Nodes 2 and 3 wake at slot 4, nobody relays at slot 3. *)
  Alcotest.(check (list int)) "slot 3: none awake" [] (Model.candidates m ~w ~slot:3);
  Alcotest.(check (list int)) "slot 4: both" [ 1; 2 ] (Model.candidates m ~w ~slot:4);
  Alcotest.(check (option int)) "next active from 3" (Some 4)
    (Model.next_active_slot m ~w ~after:2)

let test_next_active_sync () =
  let m = fig2_model () in
  let w = Bitset.of_list 5 [ 0; 1; 2 ] in
  Alcotest.(check (option int)) "sync: next round" (Some 8) (Model.next_active_slot m ~w ~after:7);
  let full = Bitset.full 5 in
  Alcotest.(check (option int)) "complete: no frontier" None
    (Model.next_active_slot m ~w:full ~after:1)

let test_complete () =
  let m = fig2_model () in
  Alcotest.(check bool) "not complete" false (Model.complete m ~w:(Bitset.of_list 5 [ 0 ]));
  Alcotest.(check bool) "complete" true (Model.complete m ~w:(Bitset.full 5))

let test_async_schedule_size_checked () =
  let sched = Wake_schedule.create ~rate:5 ~n_nodes:2 ~seed:1 () in
  Alcotest.check_raises "undersized schedule"
    (Invalid_argument "Model.create: wake schedule covers fewer nodes than the network")
    (fun () ->
      ignore (Model.create Fixtures.fig2.Fixtures.net (Model.Async sched)))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~name gen f)

let gen_model_and_w =
  QCheck2.Gen.(
    let* model, seed = Test_support.gen_sync_model in
    let n = Model.n_nodes model in
    (* Random informed set always containing node 0. *)
    let* members = list_size (int_bound (n - 1)) (int_bound (n - 1)) in
    ignore seed;
    return (model, Bitset.of_list n (0 :: members)))

(* Algorithm 1 spelled pairwise: [Coloring.greedy] over [Model.conflicts]
   in the visiting order (receiver count descending, id ascending), then
   runs of [k] classes concatenated into one (slot, channel) class. The
   class builder behind lib/phy must reproduce it exactly. *)
let pairwise_classes model ~w ~slot ~k =
  let order (u, cu) (v, cv) = if cu <> cv then compare cv cu else compare u v in
  let counts =
    List.map (fun u -> (u, Model.n_receivers model ~w u)) (Model.candidates model ~w ~slot)
  in
  let classes =
    Coloring.greedy ~order ~conflicts:(fun (u, _) (v, _) -> Model.conflicts model ~w u v) counts
    |> List.map (List.map fst)
  in
  let rec merge = function
    | [] -> []
    | classes ->
        let rec take i acc = function
          | c :: tl when i > 0 -> take (i - 1) (acc @ c) tl
          | tl -> (acc, tl)
        in
        let run, rest = take k [] classes in
        run :: merge rest
  in
  merge classes

let gen_phy_model_and_w =
  QCheck2.Gen.(
    let* phy =
      oneofl Interference.[ Udg; Multichannel 2; Multichannel 3 ]
    in
    let* n = int_range 4 16 in
    let* seed = int_bound 100000 in
    let model = Model.create ~phy (Test_support.small_network ~n ~seed) Model.Sync in
    let* members = list_size (int_bound (n - 1)) (int_bound (n - 1)) in
    return (model, Bitset.of_list n (0 :: members)))

let props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"greedy classes = pairwise greedy colouring, k classes merged"
         gen_phy_model_and_w (fun (model, w) ->
           let k = Interference.channels (Model.phy model) in
           Model.greedy_classes model ~w ~slot:1 = pairwise_classes model ~w ~slot:1 ~k));
    prop "greedy classes partition the candidates and are valid" gen_model_and_w
      (fun (model, w) ->
        let classes = Model.greedy_classes model ~w ~slot:1 in
        let cands = Model.candidates model ~w ~slot:1 in
        List.sort compare (List.concat classes) = cands
        && Coloring.classes_valid
             ~conflicts:(fun u v -> Model.conflicts model ~w u v)
             classes);
    prop "classes ordered by descending best receiver count" gen_model_and_w
      (fun (model, w) ->
        let classes = Model.greedy_classes model ~w ~slot:1 in
        let best cls =
          List.fold_left (fun acc u -> max acc (Model.n_receivers model ~w u)) 0 cls
        in
        let rec decreasing = function
          | a :: (b :: _ as rest) -> best a >= best b && decreasing rest
          | _ -> true
        in
        decreasing classes);
    prop "apply only adds neighbours of senders" gen_model_and_w (fun (model, w) ->
        match Model.candidates model ~w ~slot:1 with
        | [] -> true
        | u :: _ ->
            let added = Model.newly_informed model ~w ~senders:[ u ] in
            List.for_all
              (fun v -> Mlbs_graph.Graph.mem_edge (Model.graph model) u v)
              added);
    prop "senders in one class are pairwise conflict-free" gen_model_and_w
      (fun (model, w) ->
        List.for_all
          (fun cls ->
            List.for_all
              (fun u -> List.for_all (fun v -> u = v || not (Model.conflicts model ~w u v)) cls)
              cls)
          (Model.greedy_classes model ~w ~slot:1));
  ]

let () =
  Alcotest.run "model"
    [
      ( "unit",
        [
          Alcotest.test_case "initial w" `Quick test_initial_w;
          Alcotest.test_case "receivers" `Quick test_receivers;
          Alcotest.test_case "candidates sync" `Quick test_candidates_sync;
          Alcotest.test_case "conflicts" `Quick test_conflicts;
          Alcotest.test_case "greedy classes fig2" `Quick test_greedy_classes_fig2;
          Alcotest.test_case "apply" `Quick test_apply;
          Alcotest.test_case "async gating" `Quick test_async_candidates_gated;
          Alcotest.test_case "next active sync" `Quick test_next_active_sync;
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "schedule size" `Quick test_async_schedule_size_checked;
        ] );
      ("properties", props);
    ]
