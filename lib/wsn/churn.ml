module Point = Mlbs_geom.Point
module Graph = Mlbs_graph.Graph
module Rng = Mlbs_prng.Rng

type delta = {
  network : Network.t;
  moved : int list;
  rewired : (int * int list) list;
}

(* The k nodes nearest the centre, centre included — a contiguous blob,
   matching how physical drift perturbs a deployment. *)
let nearest points ~centre ~k =
  let n = Array.length points in
  let order = Array.init n (fun i -> i) in
  let d2 i = Point.dist2 points.(centre) points.(i) in
  Array.sort (fun a b -> compare (d2 a, a) (d2 b, b)) order;
  Array.sub order 0 k

let rewires_between g g' =
  let n = Graph.n_nodes g in
  let out = ref [] in
  for u = n - 1 downto 0 do
    if Graph.neighbors g u <> Graph.neighbors g' u then
      out := (u, Array.to_list (Graph.neighbors g' u)) :: !out
  done;
  !out

let max_attempts = 100

let drift rng net ~k ~jitter =
  let n = Network.n_nodes net in
  if k < 1 || k > n then invalid_arg "Churn.drift: k out of range";
  if jitter <= 0. then invalid_arg "Churn.drift: jitter <= 0";
  let radius = Network.radius net in
  let base = Network.positions net in
  let centre = Rng.int rng n in
  let moved = nearest base ~centre ~k in
  let attempt () =
    let points = Array.copy base in
    Array.iter
      (fun u ->
        let dx = Rng.float rng (2. *. jitter) -. jitter in
        let dy = Rng.float rng (2. *. jitter) -. jitter in
        let p = points.(u) in
        points.(u) <- Point.v (p.Point.x +. dx) (p.Point.y +. dy))
      moved;
    match Network.create ~radius points with
    | net' when Network.is_connected net' -> Some net'
    | _ -> None
    | exception Invalid_argument _ -> None (* jitter collided two nodes *)
  in
  let rec retry i =
    if i >= max_attempts then
      failwith
        (Printf.sprintf "Churn.drift: no connected drift in %d attempts" max_attempts)
    else match attempt () with Some net' -> net' | None -> retry (i + 1)
  in
  let network = retry 0 in
  {
    network;
    moved = List.sort compare (Array.to_list moved);
    rewired = rewires_between (Network.graph net) (Network.graph network);
  }
