module Point = Mlbs_geom.Point
module Quadrant = Mlbs_geom.Quadrant
module Grid = Mlbs_wsn.Grid
module Network = Mlbs_wsn.Network
module Deployment = Mlbs_wsn.Deployment
module Boundary = Mlbs_wsn.Boundary
module Rng = Mlbs_prng.Rng
module Graph = Mlbs_graph.Graph

let gen_points =
  QCheck2.Gen.(
    pair (int_range 2 60) (int_range 0 10000)
    |> map (fun (n, seed) ->
           let rng = Rng.create seed in
           Array.init n (fun _ -> Point.v (Rng.float rng 50.) (Rng.float rng 50.))))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:150 ~name gen f)

let brute_pairs points radius =
  let acc = ref [] in
  Array.iteri
    (fun i p ->
      Array.iteri
        (fun j q -> if i < j && Point.dist p q <= radius then acc := (i, j) :: !acc)
        points)
    points;
  List.sort compare !acc

(* Every row entry [j > i] as the pair [(i, j)], in ascending order. *)
let row_pairs rows =
  List.concat_map
    (fun (i, row) -> List.filter_map (fun j -> if i < j then Some (i, j) else None) row)
    (List.mapi (fun i row -> (i, Array.to_list row)) (Array.to_list rows))

let test_grid_known () =
  let pts = [| Point.v 0. 0.; Point.v 5. 0.; Point.v 30. 0. |] in
  let grid = Grid.create ~cell:10. pts in
  let rows = Grid.neighbor_rows grid ~radius:10. in
  Alcotest.(check (list int)) "close pair" [ 1 ] (Array.to_list rows.(0));
  Alcotest.(check (list int)) "far point isolated" [] (Array.to_list rows.(2));
  Alcotest.(check (list (pair int int))) "pairs" [ (0, 1) ] (row_pairs rows)

let test_grid_radius_check () =
  let grid = Grid.create ~cell:5. [| Point.v 0. 0. |] in
  Alcotest.check_raises "radius too large"
    (Invalid_argument "Grid.neighbor_rows: radius exceeds cell size") (fun () ->
      ignore (Grid.neighbor_rows grid ~radius:6.))

let test_network_udg () =
  (* The fig2 geometry: known adjacency under radius 10. *)
  let pts =
    [| Point.v 0. 0.; Point.v 8. 0.; Point.v 0. 8.; Point.v 8. 8.; Point.v 17. 0. |]
  in
  let net = Network.create ~radius:10. pts in
  let g = Network.graph net in
  Alcotest.(check int) "edges" 5 (Graph.n_edges g);
  Alcotest.(check bool) "1-2" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "1-4 out of range" false (Graph.mem_edge g 0 3);
  Alcotest.(check bool) "2-5" true (Graph.mem_edge g 1 4)

let test_network_rejects_duplicates () =
  Alcotest.check_raises "duplicate positions"
    (Invalid_argument "Network: nodes 0 and 1 share position") (fun () ->
      ignore (Network.create ~radius:1. [| Point.v 1. 1.; Point.v 1. 1. |]))

let test_network_first_duplicate () =
  (* Two coincident pairs, (0, 4) and (1, 3): the report names the
     first index that repeats an earlier position, then that position's
     first occurrence. *)
  let a = Point.v 1. 1. and b = Point.v 2. 2. in
  Alcotest.check_raises "first repeat"
    (Invalid_argument "Network: nodes 1 and 3 share position") (fun () ->
      ignore (Network.create ~radius:5. [| a; b; Point.v 3. 3.; b; a |]));
  Alcotest.check_raises "non-finite coordinate"
    (Invalid_argument "Grid.create: non-finite coordinate") (fun () ->
      ignore (Network.create ~radius:1. [| a; Point.v Float.nan 0. |]))

let test_quadrant_partition () =
  let pts =
    [| Point.v 5. 5.; Point.v 6. 6.; Point.v 4. 6.; Point.v 4. 4.; Point.v 6. 4. |]
  in
  let net = Network.create ~radius:10. pts in
  Alcotest.(check (list int)) "Q1" [ 1 ]
    (Array.to_list (Network.neighbors_in_quadrant net 0 Quadrant.Q1));
  Alcotest.(check (list int)) "Q2" [ 2 ]
    (Array.to_list (Network.neighbors_in_quadrant net 0 Quadrant.Q2));
  Alcotest.(check (list int)) "Q3" [ 3 ]
    (Array.to_list (Network.neighbors_in_quadrant net 0 Quadrant.Q3));
  Alcotest.(check (list int)) "Q4" [ 4 ]
    (Array.to_list (Network.neighbors_in_quadrant net 0 Quadrant.Q4))

let test_deployment_deterministic () =
  let spec = Deployment.paper_spec ~n_nodes:80 in
  let a = Deployment.generate (Rng.create 5) spec in
  let b = Deployment.generate (Rng.create 5) spec in
  Alcotest.(check bool) "same positions" true
    (Array.for_all2 Point.equal (Network.positions a) (Network.positions b));
  Alcotest.(check bool) "connected" true (Network.is_connected a)

let test_deployment_density () =
  let spec = Deployment.paper_spec ~n_nodes:300 in
  Alcotest.(check (float 1e-9)) "0.12" 0.12 (Deployment.density spec)

(* Oracle for [Deployment.select_source] on the naive per-node BFS:
   the same qualified list and the same [Rng.pick] draw, so an equal
   pick keeps every served source and reply byte-identical. *)
let reference_select_source rng net ~min_ecc ~max_ecc =
  let g = Network.graph net in
  let n = Network.n_nodes net in
  let ecc = Array.init n (fun v -> Mlbs_graph.Bfs.eccentricity g ~source:v) in
  let nodes = List.init n Fun.id in
  match List.filter (fun v -> ecc.(v) >= min_ecc && ecc.(v) <= max_ecc) nodes with
  | _ :: _ as qualified -> Rng.pick rng qualified
  | [] ->
      let gap e = if e < min_ecc then min_ecc - e else e - max_ecc in
      let best = Array.fold_left (fun acc e -> min acc (gap e)) max_int ecc in
      Rng.pick rng (List.filter (fun v -> gap ecc.(v) = best) nodes)

let test_source_selection () =
  let spec = Deployment.paper_spec ~n_nodes:120 in
  let net = Deployment.generate (Rng.create 11) spec in
  let g = Network.graph net in
  let source = Deployment.select_source (Rng.create 3) net ~min_ecc:5 ~max_ecc:8 in
  let gap v =
    let e = Mlbs_graph.Bfs.eccentricity g ~source:v in
    if e < 5 then 5 - e else max 0 (e - 8)
  in
  (* In the window when some node qualifies, else the closest there is. *)
  let best = List.fold_left (fun acc v -> min acc (gap v)) max_int (List.init 120 Fun.id) in
  Alcotest.(check int) "closest eccentricity to [5, 8]" best (gap source)

let test_source_selection_matches_reference () =
  List.iter
    (fun n_nodes ->
      for seed = 1 to 20 do
        let net = Deployment.generate (Rng.create seed) (Deployment.paper_spec ~n_nodes) in
        Alcotest.(check int)
          (Printf.sprintf "n=%d seed=%d" n_nodes seed)
          (reference_select_source (Rng.create seed) net ~min_ecc:5 ~max_ecc:8)
          (Deployment.select_source (Rng.create seed) net ~min_ecc:5 ~max_ecc:8)
      done)
    [ 50; 100; 150; 200; 250; 300 ]

let test_source_selection_fallback () =
  (* A 4-node path: eccentricities 3,2,2,3, none in [5,8]; the closest
     are the endpoints, drawn uniformly. *)
  let pts = Array.init 4 (fun i -> Point.v (float_of_int i *. 8.) 0.) in
  let net = Network.create ~radius:10. pts in
  let picks =
    List.init 20 (fun seed -> Deployment.select_source (Rng.create seed) net ~min_ecc:5 ~max_ecc:8)
  in
  Alcotest.(check (list int)) "both endpoints, nothing else" [ 0; 3 ] (List.sort_uniq compare picks)

let test_source_selection_window () =
  (* A 9-node path: eccentricities 8,7,6,5,4,5,6,7,8. Only ids 0..3 and
     5..8 fall in [5,8]. *)
  let pts = Array.init 9 (fun i -> Point.v (float_of_int i *. 8.) 0.) in
  let net = Network.create ~radius:10. pts in
  for seed = 0 to 20 do
    let s = Deployment.select_source (Rng.create seed) net ~min_ecc:5 ~max_ecc:8 in
    Alcotest.(check bool) "in window" true (s <> 4)
  done

let shape_spec shape =
  { (Deployment.paper_spec ~n_nodes:120) with Deployment.shape }

let test_shapes_generate_connected () =
  List.iter
    (fun (name, shape) ->
      let net = Deployment.generate (Rng.create 3) (shape_spec shape) in
      Alcotest.(check int) (name ^ " size") 120 (Network.n_nodes net);
      Alcotest.(check bool) (name ^ " connected") true (Network.is_connected net))
    [
      ("uniform", Deployment.Uniform);
      ("clustered", Deployment.Clustered { clusters = 4; spread = 6. });
      ("corridor", Deployment.Corridor { breadth = 12. });
      ("grid", Deployment.Grid_jitter { jitter = 2. });
    ]

let test_shapes_stay_in_area () =
  List.iter
    (fun shape ->
      let net = Deployment.generate (Rng.create 9) (shape_spec shape) in
      Array.iter
        (fun p ->
          Alcotest.(check bool) "in area" true
            (p.Point.x >= 0. && p.Point.x <= 50. && p.Point.y >= 0. && p.Point.y <= 50.))
        (Network.positions net))
    [
      Deployment.Clustered { clusters = 3; spread = 8. };
      Deployment.Corridor { breadth = 10. };
      Deployment.Grid_jitter { jitter = 3. };
    ]

let test_corridor_hugs_the_diagonal () =
  (* Every corridor node lies within breadth/2 of the main diagonal. *)
  let breadth = 8. in
  let net =
    Deployment.generate (Rng.create 5) (shape_spec (Deployment.Corridor { breadth }))
  in
  let dist_to_diagonal (p : Point.t) =
    (* Diagonal of a 50x50 area: the line y = x. *)
    abs_float (p.Point.y -. p.Point.x) /. sqrt 2.
  in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "within strip" true
        (dist_to_diagonal p <= (breadth /. 2.) +. 1e-9))
    (Network.positions net)

let test_shape_validation () =
  Alcotest.check_raises "clusters" (Invalid_argument "Deployment: clusters < 1") (fun () ->
      ignore
        (Deployment.generate (Rng.create 1)
           (shape_spec (Deployment.Clustered { clusters = 0; spread = 1. }))));
  Alcotest.check_raises "breadth" (Invalid_argument "Deployment: corridor breadth <= 0")
    (fun () ->
      ignore
        (Deployment.generate (Rng.create 1)
           (shape_spec (Deployment.Corridor { breadth = 0. }))))

let test_boundary_edge_nodes () =
  (* A 3x3 grid: the centre node has all four quadrants occupied; the
     corners have two empty quadrants. *)
  let pts =
    Array.init 9 (fun i -> Point.v (float_of_int (i mod 3) *. 5.) (float_of_int (i / 3) *. 5.))
  in
  let net = Network.create ~radius:8. pts in
  Alcotest.(check bool) "centre not edge" false (Boundary.is_edge_node net 4);
  Alcotest.(check bool) "corner is edge" true (Boundary.is_edge_node net 0);
  let marks = Boundary.edge_nodes net in
  (* Corner 0 = bottom-left: no neighbours down-left (Q3). *)
  Alcotest.(check bool) "corner empty Q3" true marks.(0).(Quadrant.to_index Quadrant.Q3)

let test_outer_boundary () =
  let pts =
    Array.init 9 (fun i -> Point.v (float_of_int (i mod 3) *. 5.) (float_of_int (i / 3) *. 5.))
  in
  let net = Network.create ~radius:8. pts in
  let boundary = Boundary.outer_boundary net in
  Alcotest.(check bool) "nonempty" true (boundary <> []);
  (* All four corners of the grid must appear on the outer boundary. *)
  List.iter
    (fun corner ->
      Alcotest.(check bool) (Printf.sprintf "corner %d" corner) true
        (List.mem corner boundary))
    [ 0; 2; 6; 8 ]

let props =
  [
    prop "grid pairs = brute force" gen_points (fun pts ->
        let grid = Grid.create ~cell:10. pts in
        row_pairs (Grid.neighbor_rows grid ~radius:10.) = brute_pairs pts 10.);
    prop "grid pairs = brute force on sparse wide areas" gen_points (fun pts ->
        (* Spread over a 5000 ft square: far more radius-sized cells
           than points, so the index coarsens its cells. *)
        let pts = Array.map (fun p -> Point.v (p.Point.x *. 100.) (p.Point.y *. 100.)) pts in
        let pts = Array.append pts (Array.map (fun p -> Point.v (p.Point.x +. 7.) p.Point.y) pts) in
        let grid = Grid.create ~cell:10. pts in
        row_pairs (Grid.neighbor_rows grid ~radius:10.) = brute_pairs pts 10.);
    prop "first repeat = naive scan"
      QCheck2.Gen.(list_size (int_range 1 40) (pair (int_bound 7) (int_bound 7)))
      (fun cells ->
        (* Integer positions on an 8×8 lattice: repeats are common. *)
        let pts =
          Array.of_list (List.map (fun (x, y) -> Point.v (float_of_int x) (float_of_int y)) cells)
        in
        let n = Array.length pts in
        let rec naive i =
          if i >= n then None
          else
            match List.find_opt (fun j -> Point.equal pts.(j) pts.(i)) (List.init i Fun.id) with
            | Some j -> Some (j, i)
            | None -> naive (i + 1)
        in
        Grid.first_repeat (Grid.create ~cell:2. pts) = naive 0);
    prop "UDG edges = brute force distances" gen_points (fun pts ->
        (* Skip the occasional duplicate-coordinate draw. *)
        let distinct =
          Array.length pts
          = List.length
              (List.sort_uniq compare
                 (Array.to_list (Array.map (fun p -> (p.Point.x, p.Point.y)) pts)))
        in
        QCheck2.assume distinct;
        let net = Network.create ~radius:10. pts in
        let g = Network.graph net in
        List.sort compare (Graph.edges g) = brute_pairs pts 10.);
    prop "quadrant partition covers all neighbours exactly once" gen_points (fun pts ->
        let distinct =
          Array.length pts
          = List.length
              (List.sort_uniq compare
                 (Array.to_list (Array.map (fun p -> (p.Point.x, p.Point.y)) pts)))
        in
        QCheck2.assume distinct;
        let net = Network.create ~radius:10. pts in
        let n = Network.n_nodes net in
        List.for_all
          (fun u ->
            let from_quadrants =
              List.concat_map
                (fun q -> Array.to_list (Network.neighbors_in_quadrant net u q))
                Quadrant.all
            in
            List.sort compare from_quadrants
            = Array.to_list (Network.neighbors net u))
          (List.init n Fun.id));
  ]

let () =
  Alcotest.run "wsn"
    [
      ( "grid",
        [
          Alcotest.test_case "known" `Quick test_grid_known;
          Alcotest.test_case "radius check" `Quick test_grid_radius_check;
        ] );
      ( "network",
        [
          Alcotest.test_case "udg" `Quick test_network_udg;
          Alcotest.test_case "duplicates" `Quick test_network_rejects_duplicates;
          Alcotest.test_case "first duplicate" `Quick test_network_first_duplicate;
          Alcotest.test_case "quadrants" `Quick test_quadrant_partition;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "deterministic" `Quick test_deployment_deterministic;
          Alcotest.test_case "density" `Quick test_deployment_density;
          Alcotest.test_case "source" `Quick test_source_selection;
          Alcotest.test_case "source window" `Quick test_source_selection_window;
          Alcotest.test_case "source matches per-node BFS" `Quick
            test_source_selection_matches_reference;
          Alcotest.test_case "source fallback" `Quick test_source_selection_fallback;
          Alcotest.test_case "shapes connected" `Quick test_shapes_generate_connected;
          Alcotest.test_case "shapes in area" `Quick test_shapes_stay_in_area;
          Alcotest.test_case "corridor strip" `Quick test_corridor_hugs_the_diagonal;
          Alcotest.test_case "shape validation" `Quick test_shape_validation;
        ] );
      ( "boundary",
        [
          Alcotest.test_case "edge nodes" `Quick test_boundary_edge_nodes;
          Alcotest.test_case "outer boundary" `Quick test_outer_boundary;
        ] );
      ("properties", props);
    ]
