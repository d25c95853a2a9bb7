module Point = Mlbs_geom.Point
module Rng = Mlbs_prng.Rng
module Metrics = Mlbs_graph.Metrics

type shape =
  | Uniform
  | Clustered of { clusters : int; spread : float }
  | Corridor of { breadth : float }
  | Grid_jitter of { jitter : float }

type spec = {
  n_nodes : int;
  width : float;
  height : float;
  radius : float;
  shape : shape;
}

let paper_spec ~n_nodes =
  { n_nodes; width = 50.; height = 50.; radius = 10.; shape = Uniform }

(* Box–Muller from two uniform draws; deterministic in the stream. *)
let gaussian rng ~mean ~sigma =
  let u1 = Float.max 1e-12 (Rng.float rng 1.0) in
  let u2 = Rng.float rng 1.0 in
  mean +. (sigma *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

(* Rejection-sample a point inside the area: clamping to the boundary
   would stack coincident positions, which the UDG model rejects. *)
let in_area spec (p : Point.t) =
  p.Point.x >= 0. && p.Point.x <= spec.width && p.Point.y >= 0. && p.Point.y <= spec.height

let rec sample_until rng spec draw =
  let p = draw () in
  if in_area spec p then p else sample_until rng spec draw

let sample_points rng spec =
  match spec.shape with
  | Uniform ->
      Array.init spec.n_nodes (fun _ ->
          Point.v (Rng.float rng spec.width) (Rng.float rng spec.height))
  | Clustered { clusters; spread } ->
      if clusters < 1 then invalid_arg "Deployment: clusters < 1";
      let centres =
        Array.init clusters (fun _ ->
            (Rng.float rng spec.width, Rng.float rng spec.height))
      in
      Array.init spec.n_nodes (fun _ ->
          sample_until rng spec (fun () ->
              let cx, cy = centres.(Rng.int rng clusters) in
              Point.v (gaussian rng ~mean:cx ~sigma:spread)
                (gaussian rng ~mean:cy ~sigma:spread)))
  | Corridor { breadth } ->
      if breadth <= 0. then invalid_arg "Deployment: corridor breadth <= 0";
      (* A strip around the main diagonal: position along the diagonal
         is uniform, offset across it is uniform in [-b/2, b/2]. *)
      let diag = sqrt ((spec.width *. spec.width) +. (spec.height *. spec.height)) in
      let ux = spec.width /. diag and uy = spec.height /. diag in
      Array.init spec.n_nodes (fun _ ->
          sample_until rng spec (fun () ->
              let along = Rng.float rng diag in
              let across = Rng.float rng breadth -. (breadth /. 2.) in
              Point.v ((along *. ux) -. (across *. uy)) ((along *. uy) +. (across *. ux))))
  | Grid_jitter { jitter } ->
      if jitter < 0. then invalid_arg "Deployment: negative jitter";
      let cols = int_of_float (ceil (sqrt (float_of_int spec.n_nodes))) in
      let rows = (spec.n_nodes + cols - 1) / cols in
      let dx = spec.width /. float_of_int cols
      and dy = spec.height /. float_of_int rows in
      Array.init spec.n_nodes (fun i ->
          let c = i mod cols and r = i / cols in
          let base_x = (float_of_int c +. 0.5) *. dx
          and base_y = (float_of_int r +. 0.5) *. dy in
          sample_until rng spec (fun () ->
              let jx = Rng.float rng (2. *. jitter) -. jitter
              and jy = Rng.float rng (2. *. jitter) -. jitter in
              Point.v (base_x +. jx) (base_y +. jy)))

let generate ?(max_attempts = 200) rng spec =
  if spec.n_nodes <= 0 then invalid_arg "Deployment.generate: n_nodes <= 0";
  let rec attempt k =
    if k >= max_attempts then
      failwith
        (Printf.sprintf
           "Deployment.generate: no connected deployment after %d attempts (n=%d, r=%.1f)"
           max_attempts spec.n_nodes spec.radius);
    let net = Network.create ~radius:spec.radius (sample_points rng spec) in
    if Network.is_connected net then net else attempt (k + 1)
  in
  attempt 0

let select_source rng net ~min_ecc ~max_ecc =
  if max_ecc < min_ecc then invalid_arg "Deployment.select_source: max_ecc < min_ecc";
  let n = Network.n_nodes net in
  let ecc = Metrics.eccentricities (Network.graph net) in
  let qualified = ref [] in
  for v = n - 1 downto 0 do
    if ecc.(v) >= min_ecc && ecc.(v) <= max_ecc then qualified := v :: !qualified
  done;
  match !qualified with
  | _ :: _ as vs -> Rng.pick rng vs
  | [] ->
      (* Fall back to the closest eccentricity; ties broken uniformly. *)
      let gap e = if e < min_ecc then min_ecc - e else e - max_ecc in
      let best = Array.fold_left (fun acc e -> min acc (gap e)) max_int ecc in
      let close = ref [] in
      for v = n - 1 downto 0 do
        if gap ecc.(v) = best then close := v :: !close
      done;
      Rng.pick rng !close

let density spec = float_of_int spec.n_nodes /. (spec.width *. spec.height)
