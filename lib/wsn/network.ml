module Point = Mlbs_geom.Point
module Quadrant = Mlbs_geom.Quadrant
module Graph = Mlbs_graph.Graph
module Components = Mlbs_graph.Components

type t = {
  radius : float;
  points : Point.t array;
  graph : Graph.t;
  by_quadrant : int array array array option Atomic.t;
      (* node -> quadrant index -> sorted neighbours, built on first use *)
}

let check_distinct grid =
  match Grid.first_repeat grid with
  | Some (j, i) -> invalid_arg (Printf.sprintf "Network: nodes %d and %d share position" j i)
  | None -> ()

let partition_quadrants points graph =
  Array.mapi
    (fun u origin ->
      let buckets = Array.make 4 [] in
      Array.iter
        (fun v ->
          match Quadrant.classify ~origin points.(v) with
          | Some q ->
              let k = Quadrant.to_index q in
              buckets.(k) <- v :: buckets.(k)
          | None -> ())
        (Graph.neighbors graph u);
      Array.map (fun l -> Array.of_list (List.rev l)) buckets)
    points

let make ~radius ~points graph = { radius; points; graph; by_quadrant = Atomic.make None }

let of_graph ~radius ~points graph =
  if radius <= 0. then invalid_arg "Network.of_graph: radius <= 0";
  if Array.length points <> Graph.n_nodes graph then
    invalid_arg "Network.of_graph: points/graph size mismatch";
  check_distinct (Grid.create ~cell:radius points);
  make ~radius ~points graph

(* The unit grid's positions are distinct by construction. *)
let synthetic graph =
  let n = Graph.n_nodes graph in
  let cols = max 1 (int_of_float (ceil (sqrt (float_of_int (max n 1))))) in
  let points =
    Array.init n (fun i -> Point.v (float_of_int (i mod cols)) (float_of_int (i / cols)))
  in
  make ~radius:1.0 ~points graph

let create ~radius points =
  if radius <= 0. then invalid_arg "Network.create: radius <= 0";
  let grid = Grid.create ~cell:radius points in
  check_distinct grid;
  make ~radius ~points (Graph.of_rows (Grid.neighbor_rows grid ~radius))

let graph t = t.graph
let n_nodes t = Array.length t.points
let radius t = t.radius
let position t u = t.points.(u)
let positions t = t.points
let neighbors t u = Graph.neighbors t.graph u

(* Only E-model and boundary construction read the partition, so it is
   built on the first call. Concurrent first calls each compute the
   same pure value and the compare-and-set keeps one; nothing can
   observe a half-built partition. *)
let quadrants t =
  match Atomic.get t.by_quadrant with
  | Some q -> q
  | None ->
      ignore (Atomic.compare_and_set t.by_quadrant None (Some (partition_quadrants t.points t.graph)));
      Option.get (Atomic.get t.by_quadrant)

let neighbors_in_quadrant t u q = (quadrants t).(u).(Quadrant.to_index q)

let digest t =
  let fold h f = Graph.mix h (Int64.bits_of_float f) in
  Array.fold_left (fun h p -> fold (fold h p.Point.x) p.Point.y)
    (fold (Graph.digest t.graph) t.radius) t.points

let is_connected t = Components.is_connected t.graph

let density t ~area =
  if area <= 0. then invalid_arg "Network.density: area <= 0";
  float_of_int (n_nodes t) /. area

let pp ppf t =
  Format.fprintf ppf "network(n=%d, r=%.1f, m=%d)" (n_nodes t) t.radius
    (Graph.n_edges t.graph)
