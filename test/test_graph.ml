module Graph = Mlbs_graph.Graph
module Bfs = Mlbs_graph.Bfs
module Components = Mlbs_graph.Components
module Coloring = Test_support.Coloring
module Metrics = Mlbs_graph.Metrics
module Indep = Mlbs_graph.Indep
module Bitset = Mlbs_util.Bitset

(* A 5-cycle plus a pendant: 0-1-2-3-4-0, 4-5. *)
let sample = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0); (4, 5) ]

let test_construction () =
  Alcotest.(check int) "nodes" 6 (Graph.n_nodes sample);
  Alcotest.(check int) "edges" 6 (Graph.n_edges sample);
  Alcotest.(check (list int)) "sorted neighbors" [ 0; 3; 5 ]
    (Array.to_list (Graph.neighbors sample 4));
  Alcotest.(check bool) "mem_edge" true (Graph.mem_edge sample 2 3);
  Alcotest.(check bool) "mem_edge sym" true (Graph.mem_edge sample 3 2);
  Alcotest.(check bool) "non-edge" false (Graph.mem_edge sample 0 2);
  Alcotest.(check int) "max degree" 3 (Graph.max_degree sample)

let test_construction_errors () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop at 2")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (2, 2) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.of_edges: edge (0,3) outside [0,3)") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (0, 3) ]));
  Alcotest.check_raises "asymmetric adjacency"
    (Invalid_argument "Graph.of_adjacency: asymmetric edge 0->1") (fun () ->
      ignore (Graph.of_adjacency [| [ 1 ]; [] |]))

let test_of_rows_errors () =
  let raises msg rows =
    Alcotest.check_raises msg (Invalid_argument ("Graph.of_rows: " ^ msg)) (fun () ->
        ignore (Graph.of_rows rows))
  in
  raises "asymmetric edge 0->1" [| [| 1 |]; [||] |];
  raises "asymmetric edge 1->0" [| [||]; [| 0 |] |];
  raises "asymmetric edge 0->2" [| [| 2 |]; [| 2 |]; [| 1 |] |];
  raises "asymmetric edge 2->0" [| [||]; [| 2 |]; [| 0; 1 |] |];
  raises "row 0 not strictly ascending" [| [| 2; 1 |]; [| 0 |]; [| 0 |] |];
  raises "row 0 not strictly ascending" [| [| 1; 1 |]; [| 0 |] |];
  raises "self-loop at 0" [| [| 0 |] |];
  raises "neighbour 3 of 0 out of range" [| [| 3 |]; [||] |];
  let g = Graph.of_rows [| [| 1; 2 |]; [| 0 |]; [| 0 |] |] in
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (0, 2) ] (Graph.edges g)

let test_duplicate_edges_collapse () =
  let g = Graph.of_edges ~n:2 [ (0, 1); (1, 0); (0, 1) ] in
  Alcotest.(check int) "one edge" 1 (Graph.n_edges g);
  Alcotest.(check int) "degree" 1 (Graph.degree g 0)

let test_edges_listing () =
  let es = Graph.edges sample in
  Alcotest.(check int) "count" 6 (List.length es);
  Alcotest.(check bool) "normalised u<v" true (List.for_all (fun (u, v) -> u < v) es)

let test_bfs () =
  let r = Bfs.run sample ~source:0 in
  Alcotest.(check (list int)) "distances" [ 0; 1; 2; 2; 1; 2 ] (Array.to_list r.Bfs.dist);
  Alcotest.(check int) "source parent" (-1) r.Bfs.parent.(0);
  (* Every parent is one hop closer. *)
  Array.iteri
    (fun v p ->
      if p >= 0 then
        Alcotest.(check int) "parent distance" (r.Bfs.dist.(v) - 1) r.Bfs.dist.(p))
    r.Bfs.parent

let test_bfs_multi () =
  let r = Bfs.run_multi sample ~sources:[ 0; 3 ] in
  Alcotest.(check int) "near 0" 0 r.Bfs.dist.(0);
  Alcotest.(check int) "near 3" 0 r.Bfs.dist.(3);
  Alcotest.(check int) "2 is 1 from 3" 1 r.Bfs.dist.(2)

let test_bfs_unreachable () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  let r = Bfs.run g ~source:0 in
  Alcotest.(check int) "unreachable" max_int r.Bfs.dist.(2);
  Alcotest.check_raises "eccentricity raises"
    (Invalid_argument "Bfs.eccentricity: disconnected graph") (fun () ->
      ignore (Bfs.eccentricity g ~source:0))

let test_layers () =
  let layers = Bfs.layers sample ~source:0 in
  Alcotest.(check (list (list int))) "layers" [ [ 0 ]; [ 1; 4 ]; [ 2; 3; 5 ] ] layers

let test_bfs_scratch () =
  (* The allocation-free variant agrees with [run_multi] and a scratch
     survives reuse across graphs of different sizes. *)
  let sc = Bfs.scratch 6 in
  let check_against g sources =
    let n = Graph.n_nodes g in
    let r = Bfs.run_multi g ~sources in
    Bfs.run_multi_into sc g ~sources:(Bitset.of_list n sources);
    let everyone = Bitset.full n in
    let expect =
      Array.fold_left (fun acc d -> if d = max_int || acc = max_int then max_int else max acc d)
        0 r.Bfs.dist
    in
    Alcotest.(check int) "max dist agrees" expect (Bfs.max_dist_from sc ~within:everyone)
  in
  check_against sample [ 0; 3 ];
  check_against sample [ 2 ];
  check_against (Graph.of_edges ~n:3 [ (0, 1) ]) [ 0 ];
  Alcotest.check_raises "scratch too small"
    (Invalid_argument "Bfs.run_multi_into: scratch smaller than graph") (fun () ->
      Bfs.run_multi_into (Bfs.scratch 2) sample ~sources:(Bitset.of_list 6 [ 0 ]))

let test_max_dist_in () =
  let r = Bfs.run sample ~source:0 in
  Alcotest.(check int) "subset max" 2 (Bfs.max_dist_in r ~within:(Bitset.of_list 6 [ 1; 3 ]));
  Alcotest.(check int) "empty subset" 0 (Bfs.max_dist_in r ~within:(Bitset.create 6))

let test_components () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (2, 3) ] in
  Alcotest.(check int) "count" 3 (Components.count g);
  Alcotest.(check bool) "not connected" false (Components.is_connected g);
  Alcotest.(check bool) "sample connected" true (Components.is_connected sample);
  Alcotest.(check (list int)) "largest" [ 0; 1 ] (Components.largest g);
  let labels = Components.labels g in
  Alcotest.(check bool) "same component same label" true (labels.(2) = labels.(3));
  Alcotest.(check bool) "different components differ" true (labels.(0) <> labels.(4))

let test_metrics () =
  Alcotest.(check int) "diameter" 3 (Metrics.diameter sample);
  Alcotest.(check int) "radius" 2 (Metrics.radius sample);
  Alcotest.(check (float 1e-9)) "avg degree" 2. (Metrics.average_degree sample);
  Alcotest.(check (list (pair int int))) "degree histogram" [ (1, 1); (2, 4); (3, 1) ]
    (Metrics.degree_histogram sample)

(* Sizes straddling the 62-source word of [Metrics.eccentricities]:
   one node, a single partial word, a full word, one past it, a partial
   second word, two full words plus one, and the paper's largest n. *)
let ecc_sizes = [ 1; 2; 61; 62; 63; 64; 125; 300 ]

(* A random connected graph: a random spanning tree under a random
   labelling plus a few chords, sparse enough for deep BFS layers. *)
let random_connected ~n seed =
  let rng = Mlbs_prng.Rng.create seed in
  let label = Array.init n Fun.id in
  Mlbs_prng.Rng.shuffle rng label;
  let tree = List.init (n - 1) (fun i -> (label.(i + 1), label.(Mlbs_prng.Rng.int rng (i + 1)))) in
  let chords =
    List.init (Mlbs_prng.Rng.int rng (n + 1)) (fun _ ->
        (Mlbs_prng.Rng.int rng n, Mlbs_prng.Rng.int rng n))
    |> List.filter (fun (u, v) -> u <> v)
  in
  Graph.of_edges ~n (tree @ chords)

let naive_eccentricities g = Array.init (Graph.n_nodes g) (fun v -> Bfs.eccentricity g ~source:v)

let disconnected_raises g =
  match Metrics.eccentricities g with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_eccentricities_edges () =
  Alcotest.(check (array int)) "empty graph" [||] (Metrics.eccentricities (Graph.of_edges ~n:0 []));
  Alcotest.(check (array int)) "sample" [| 2; 3; 3; 2; 2; 3 |] (Metrics.eccentricities sample);
  (* A path 0..124 cut between 99 and 100: the unreachable nodes sit in
     the second word of sources. *)
  let path n ~cut =
    List.init (n - 1) (fun i -> (i, i + 1))
    |> List.filter (fun (u, _) -> u <> cut)
    |> Graph.of_edges ~n
  in
  let g = path 125 ~cut:99 in
  Alcotest.check_raises "unreachable node in a later word"
    (Invalid_argument "Metrics.eccentricities: disconnected graph") (fun () ->
      ignore (Metrics.eccentricities g));
  (* Two components of one word each: every node's mask is either empty
     or full within each word, yet the graph is disconnected. *)
  Alcotest.check_raises "one component per word"
    (Invalid_argument "Metrics.eccentricities: disconnected graph") (fun () ->
      ignore (Metrics.eccentricities (path 124 ~cut:61)))

(* ------------------------- coloring ------------------------------- *)

let test_coloring_known () =
  (* Items 0..3, conflicts forming a path 0-1-2-3; descending "weight"
     order 3,2,1,0. Greedy: C1 = {3,1}, C2 = {2,0}. *)
  let conflicts a b = abs (a - b) = 1 in
  let order a b = compare b a in
  let classes = Coloring.greedy ~order ~conflicts [ 0; 1; 2; 3 ] in
  Alcotest.(check (list (list int))) "classes" [ [ 3; 1 ]; [ 2; 0 ] ] classes;
  Alcotest.(check bool) "valid" true (Coloring.classes_valid ~conflicts classes)

let test_coloring_no_conflicts () =
  let classes = Coloring.greedy ~order:compare ~conflicts:(fun _ _ -> false) [ 3; 1; 2 ] in
  Alcotest.(check (list (list int))) "one class" [ [ 1; 2; 3 ] ] classes

let test_coloring_clique () =
  let classes = Coloring.greedy ~order:compare ~conflicts:(fun a b -> a <> b) [ 1; 2; 3 ] in
  Alcotest.(check int) "three classes" 3 (List.length classes)

let test_classes_valid_detects_bad () =
  let conflicts a b = a <> b in
  Alcotest.(check bool) "conflicting class invalid" false
    (Coloring.classes_valid ~conflicts [ [ 1; 2 ] ]);
  (* Second class whose member conflicts with nothing earlier. *)
  Alcotest.(check bool) "unblocked later class invalid" false
    (Coloring.classes_valid ~conflicts:(fun _ _ -> false) [ [ 0 ]; [ 2 ] ])

(* --------------------------- indep -------------------------------- *)

let subsets_independent conflict sets =
  List.for_all
    (fun s -> List.for_all (fun a -> List.for_all (fun b -> a = b || not (conflict a b)) s) s)
    sets

let maximality n conflict sets =
  List.for_all
    (fun s ->
      List.for_all
        (fun v -> List.mem v s || List.exists (fun u -> conflict u v) s)
        (List.init n Fun.id))
    sets

let test_indep_path () =
  (* Conflict path 0-1-2: maximal independent sets are {0,2} and {1}. *)
  let conflict a b = abs (a - b) = 1 in
  let sets = Indep.maximal ~n:3 ~conflict ~limit:100 in
  Alcotest.(check (list (list int))) "sets" [ [ 0; 2 ]; [ 1 ] ]
    (List.sort compare (List.map (List.sort compare) sets))

let test_indep_empty_relation () =
  let sets = Indep.maximal ~n:4 ~conflict:(fun _ _ -> false) ~limit:10 in
  Alcotest.(check (list (list int))) "single full set" [ [ 0; 1; 2; 3 ] ] sets

let test_indep_clique () =
  let sets = Indep.maximal ~n:4 ~conflict:(fun a b -> a <> b) ~limit:10 in
  Alcotest.(check int) "four singletons" 4 (List.length sets);
  Alcotest.(check bool) "all singleton" true (List.for_all (fun s -> List.length s = 1) sets)

let test_indep_limit () =
  let sets = Indep.maximal ~n:4 ~conflict:(fun a b -> a <> b) ~limit:2 in
  Alcotest.(check int) "limited" 2 (List.length sets)

let test_indep_zero () =
  Alcotest.(check (list (list int))) "n=0" [ [] ] (Indep.maximal ~n:0 ~conflict:(fun _ _ -> true) ~limit:5)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:150 ~name gen f)

(* Random symmetric irreflexive conflict relation over n items as an
   edge-probability matrix derived from a seed list. *)
let gen_relation =
  QCheck2.Gen.(
    pair (int_range 1 9) (list_size (return 81) bool)
    |> map (fun (n, bits) ->
           let arr = Array.of_list bits in
           let conflict a b = a <> b && arr.((min a b * 9) + max a b) in
           (n, conflict)))

(* ----------------------------- digest ------------------------------ *)

let test_digest_canonical () =
  (* The same labelled adjacency built two different ways. *)
  let a = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0); (4, 5) ] in
  let b =
    Graph.of_edges ~n:6
      [ (5, 4); (4, 3); (0, 4); (2, 1); (3, 2); (1, 0); (0, 1) (* dup collapses *) ]
  in
  let c =
    Graph.of_adjacency
      [| [ 1; 4 ]; [ 0; 2 ]; [ 1; 3 ]; [ 2; 4 ]; [ 0; 3; 5 ]; [ 4 ] |]
  in
  Alcotest.(check int64) "edge order irrelevant" (Graph.digest a) (Graph.digest b);
  Alcotest.(check int64) "adjacency build equal" (Graph.digest a) (Graph.digest c)

let test_digest_discriminates () =
  let base = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0); (4, 5) ] in
  let flipped = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0); (3, 5) ] in
  let extra = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0); (4, 5); (0, 2) ] in
  let bigger = Graph.of_edges ~n:7 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0); (4, 5) ] in
  Alcotest.(check bool) "edge flip differs" true (Graph.digest base <> Graph.digest flipped);
  Alcotest.(check bool) "extra edge differs" true (Graph.digest base <> Graph.digest extra);
  Alcotest.(check bool) "node count differs" true (Graph.digest base <> Graph.digest bigger);
  (* Labels matter: digest is over the labelled graph, not the
     isomorphism class. *)
  let relabel = Graph.of_edges ~n:6 [ (1, 2); (2, 3); (3, 4); (4, 0); (0, 1); (0, 5) ] in
  Alcotest.(check bool) "relabelling differs" true
    (Graph.digest base <> Graph.digest relabel)

let props =
  [
    prop "greedy coloring always valid" gen_relation (fun (n, conflict) ->
        let items = List.init n Fun.id in
        let classes = Coloring.greedy ~order:compare ~conflicts:conflict items in
        Coloring.classes_valid ~conflicts:conflict classes
        && List.sort compare (List.concat classes) = items);
    prop "maximal independent sets: independent and maximal" gen_relation
      (fun (n, conflict) ->
        let sets = Indep.maximal ~n ~conflict ~limit:500 in
        sets <> []
        && subsets_independent conflict sets
        && maximality n conflict sets);
    prop "every greedy class extends to some enumerated maximal set" gen_relation
      (fun (n, conflict) ->
        let items = List.init n Fun.id in
        let classes = Coloring.greedy ~order:compare ~conflicts:conflict items in
        let sets = Indep.maximal ~n ~conflict ~limit:500 in
        List.for_all
          (fun cls ->
            List.exists (fun s -> List.for_all (fun c -> List.mem c s) cls) sets
            ||
            (* The class itself may already be maximal and enumerated. *)
            List.mem (List.sort compare cls) (List.map (List.sort compare) sets))
          classes);
    prop "bit-parallel eccentricities equal per-node BFS"
      QCheck2.Gen.(pair (oneofl ecc_sizes) (0 -- 100_000))
      (fun (n, seed) ->
        let g = random_connected ~n seed in
        Metrics.eccentricities g = naive_eccentricities g);
    prop "eccentricities raise on a disconnected graph"
      QCheck2.Gen.(triple (oneofl ecc_sizes) (0 -- 100_000) (0 -- 1000))
      (fun (n, seed, pick) ->
        (* Cut one node off a connected graph on n + 1 nodes. *)
        let g = random_connected ~n:(n + 1) seed in
        let w = pick mod (n + 1) in
        let cut = Graph.edit g ~add:[] ~remove:[] ~rewire:[ (w, []) ] in
        (not (Components.is_connected cut)) && disconnected_raises cut);
    prop "digest invariant under edge-list shuffle" QCheck2.Gen.(0 -- 1000) (fun seed ->
        let rng = Mlbs_prng.Rng.create seed in
        let n = 2 + Mlbs_prng.Rng.int rng 20 in
        let edges = ref [] in
        for u = 0 to n - 1 do
          for v = u + 1 to n - 1 do
            if Mlbs_prng.Rng.float rng 1.0 < 0.3 then edges := (u, v) :: !edges
          done
        done;
        let shuffled =
          List.sort
            (fun a b -> compare (Hashtbl.hash (a, seed)) (Hashtbl.hash (b, seed)))
            (List.map (fun (u, v) -> if seed mod 2 = 0 then (v, u) else (u, v)) !edges)
        in
        Graph.digest (Graph.of_edges ~n !edges)
        = Graph.digest (Graph.of_edges ~n shuffled));
    prop "of_edges: shuffled list with duplicates = canonical rows" QCheck2.Gen.(0 -- 1000)
      (fun seed ->
        let rng = Mlbs_prng.Rng.create seed in
        let n = 1 + Mlbs_prng.Rng.int rng 30 in
        let canonical = ref [] in
        for u = n - 1 downto 0 do
          for v = n - 1 downto u + 1 do
            if Mlbs_prng.Rng.float rng 1.0 < 0.25 then canonical := (u, v) :: !canonical
          done
        done;
        (* Every edge once or twice, either orientation, in random order. *)
        let noisy =
          List.concat_map
            (fun (u, v) ->
              if Mlbs_prng.Rng.int rng 3 = 0 then [ (u, v); (v, u) ]
              else if Mlbs_prng.Rng.bool rng ~p:0.5 then [ (v, u) ]
              else [ (u, v) ])
            !canonical
          |> List.map (fun e -> (Mlbs_prng.Rng.int rng 1_000_000, e))
          |> List.sort compare |> List.map snd
        in
        let a = Graph.of_edges ~n !canonical and b = Graph.of_edges ~n noisy in
        let rows g = List.init n (fun u -> Array.to_list (Graph.neighbors g u)) in
        rows a = rows b
        && Graph.digest a = Graph.digest b
        && Graph.n_edges a = List.length !canonical
        && Graph.edges a = !canonical
        && Graph.digest (Graph.of_rows (Array.init n (Graph.neighbors a))) = Graph.digest a);
    prop "of_rows raises exactly on asymmetric rows" QCheck2.Gen.(0 -- 1000) (fun seed ->
        let rng = Mlbs_prng.Rng.create seed in
        let n = 1 + Mlbs_prng.Rng.int rng 12 in
        let rows =
          Array.init n (fun u ->
              Array.of_list
                (List.filter
                   (fun v -> v <> u && Mlbs_prng.Rng.float rng 1.0 < 0.3)
                   (List.init n Fun.id)))
        in
        (* Mirror most rows so both outcomes occur. *)
        if Mlbs_prng.Rng.bool rng ~p:0.7 then
          Array.iteri
            (fun u row ->
              Array.iter
                (fun v -> rows.(v) <- Array.of_list (List.sort_uniq compare (u :: Array.to_list rows.(v))))
                row)
            (Array.copy rows);
        let symmetric =
          Array.for_all Fun.id
            (Array.mapi (fun u row -> Array.for_all (fun v -> Array.mem u rows.(v)) row) rows)
        in
        match Graph.of_rows rows with
        | _ -> symmetric
        | exception Invalid_argument _ -> not symmetric);
    prop "of_edges: a self-loop or out-of-range endpoint raises"
      QCheck2.Gen.(triple (1 -- 20) (0 -- 1000) (0 -- 2))
      (fun (n, pick, kind) ->
        let u = pick mod n in
        let bad = match kind with 0 -> (u, u) | 1 -> (u, n + pick) | _ -> (-1 - pick, u) in
        let edges = List.init (n - 1) (fun v -> (v, v + 1)) in
        let raises edges =
          match Graph.of_edges ~n edges with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        raises (bad :: edges) && raises (edges @ [ bad ]));
  ]

let () =
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "errors" `Quick test_construction_errors;
          Alcotest.test_case "of_rows errors" `Quick test_of_rows_errors;
          Alcotest.test_case "duplicates" `Quick test_duplicate_edges_collapse;
          Alcotest.test_case "edges" `Quick test_edges_listing;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "single source" `Quick test_bfs;
          Alcotest.test_case "multi source" `Quick test_bfs_multi;
          Alcotest.test_case "unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "layers" `Quick test_layers;
          Alcotest.test_case "scratch variant" `Quick test_bfs_scratch;
          Alcotest.test_case "max_dist_in" `Quick test_max_dist_in;
        ] );
      ( "components",
        [ Alcotest.test_case "components" `Quick test_components ] );
      ( "digest",
        [
          Alcotest.test_case "canonical" `Quick test_digest_canonical;
          Alcotest.test_case "discriminates" `Quick test_digest_discriminates;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "eccentricities edge cases" `Quick test_eccentricities_edges;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "known" `Quick test_coloring_known;
          Alcotest.test_case "no conflicts" `Quick test_coloring_no_conflicts;
          Alcotest.test_case "clique" `Quick test_coloring_clique;
          Alcotest.test_case "invalid detection" `Quick test_classes_valid_detects_bad;
        ] );
      ( "indep",
        [
          Alcotest.test_case "path" `Quick test_indep_path;
          Alcotest.test_case "empty relation" `Quick test_indep_empty_relation;
          Alcotest.test_case "clique" `Quick test_indep_clique;
          Alcotest.test_case "limit" `Quick test_indep_limit;
          Alcotest.test_case "zero items" `Quick test_indep_zero;
        ] );
      ("properties", props);
    ]
