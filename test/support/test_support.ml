(* Shared generators and helpers for the scheduler test suites. *)

module Point = Mlbs_geom.Point
module Rng = Mlbs_prng.Rng
module Network = Mlbs_wsn.Network
module Deployment = Mlbs_wsn.Deployment
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Model = Mlbs_core.Model
module Flooding = Mlbs_proto.Flooding
module Localized = Mlbs_proto.Localized
module Broadcast_protocol = Mlbs_proto.Broadcast_protocol

(* The pairwise Algorithm-1 oracle. *)
module Coloring = Coloring

(* A small connected random deployment: n nodes in a (scaled) area dense
   enough to connect quickly, radius 10. Deterministic in the seed. *)
let small_network ~n ~seed =
  let rng = Rng.create seed in
  (* Scale the area with n so density stays moderate. *)
  let side = max 12. (sqrt (float_of_int n) *. 7.) in
  let spec =
    { Deployment.n_nodes = n; width = side; height = side; radius = 10.;
      shape = Deployment.Uniform }
  in
  Deployment.generate rng spec

let gen_sync_model =
  QCheck2.Gen.(
    let* n = int_range 4 14 in
    let* seed = int_bound 100000 in
    let net = small_network ~n ~seed in
    return (Model.create net Model.Sync, seed))

let gen_async_model =
  QCheck2.Gen.(
    let* n = int_range 4 12 in
    let* seed = int_bound 100000 in
    let* rate = int_range 2 8 in
    let net = small_network ~n ~seed in
    let sched = Wake_schedule.create ~rate ~n_nodes:n ~seed () in
    return (Model.create net (Model.Async sched), seed))

(* Sparser, deeper deployments than [small_network] (area side 9√n
   instead of 7√n, up to 18 nodes): deeper searches, and the greedy
   classes' coverage sets nest more often. *)
let sparse_network ~n ~seed =
  let side = 9. *. sqrt (float_of_int n) in
  Deployment.generate (Rng.create seed)
    { Deployment.n_nodes = n; width = side; height = side; radius = 10.;
      shape = Deployment.Uniform }

let gen_sparse_sync_model =
  QCheck2.Gen.(
    let* n = int_range 8 18 in
    let* seed = int_bound 100000 in
    return (Model.create (sparse_network ~n ~seed) Model.Sync, seed))

let gen_sparse_async_model =
  QCheck2.Gen.(
    let* n = int_range 8 16 in
    let* seed = int_bound 100000 in
    let* rate = int_range 2 8 in
    let sched = Wake_schedule.create ~rate ~n_nodes:n ~seed () in
    return (Model.create (sparse_network ~n ~seed) (Model.Async sched), seed))

(* A deterministic source: node 0 is always present. *)
let source _model = 0

(* Every on-line runner from node 0 at slot 1, each reporting its
   schedule and whether it claims full coverage. *)
let runner_schedules model =
  let flood variant =
    let r = Flooding.run model variant ~source:0 ~start:1 in
    (r.Flooding.schedule, r.Flooding.covered)
  in
  [
    ("flooding once", flood Flooding.Once);
    ("flooding p=0.4", flood (Flooding.Persistent 0.4));
    ("localized", ((Localized.run model ~source:0 ~start:1).Localized.schedule, true));
    ( "protocol",
      ((Broadcast_protocol.run model ~source:0 ~start:1).Broadcast_protocol.schedule, true) );
  ]

(* The SINR additive-feasibility zone written plainly, as a reference
   for [Interference.pass]/[classes]: closures over the sets, and every
   accept adds power at all of W̄, not only at the receivers the
   candidates reach. Same decision expressions, in the same order, as
   the library's zone, so the two must agree bit for bit. *)
module Sinr_ref = struct
  module Bitset = Mlbs_util.Bitset
  module Graph = Mlbs_graph.Graph
  module Sinr = Mlbs_phy.Sinr

  type zone = {
    z : Sinr.t;
    ubar : Bitset.t;
    s : float array;
    covered : Bitset.t;
    p_cap : float array;
  }

  let start z ~uninformed =
    let n = Bitset.cap uninformed in
    {
      z;
      ubar = uninformed;
      s = Array.make n 0.0;
      covered = Bitset.create n;
      p_cap = Array.make n 0.0;
    }

  let admits zn u =
    let { Sinr.beta; noise; _ } = Sinr.params zn.z in
    let g = zn.z.Sinr.graph in
    Bitset.for_all
      (fun x ->
        let pu = Sinr.power_at zn.z u x in
        let pc = zn.p_cap.(x) in
        pc >= beta *. (noise +. zn.s.(x) +. pu -. pc)
        || (Graph.mem_edge g u x && pu >= beta *. (noise +. zn.s.(x))))
      zn.covered
    && Array.for_all
         (fun x ->
           (not (Bitset.mem zn.ubar x))
           || Bitset.mem zn.covered x
           || Sinr.power_at zn.z u x >= beta *. (noise +. zn.s.(x)))
         (Graph.neighbors g u)

  let accept zn u =
    let { Sinr.beta; noise; _ } = Sinr.params zn.z in
    let g = zn.z.Sinr.graph in
    Bitset.iter
      (fun x ->
        let pu = Sinr.power_at zn.z u x in
        (if Bitset.mem zn.covered x then begin
           let pc = zn.p_cap.(x) in
           if pc < beta *. (noise +. zn.s.(x) +. pu -. pc) then zn.p_cap.(x) <- pu
         end
         else if Graph.mem_edge g u x then begin
           Bitset.add zn.covered x;
           zn.p_cap.(x) <- pu
         end);
        zn.s.(x) <- zn.s.(x) +. pu)
      zn.ubar

  (* One greedy pass: the class, the rejects and the class's coverage. *)
  let pass z ~uninformed items =
    let zn = start z ~uninformed in
    let cl, rest =
      List.fold_left
        (fun (cl, rest) u ->
          if admits zn u then begin
            accept zn u;
            (u :: cl, rest)
          end
          else (cl, u :: rest))
        ([], []) items
    in
    (List.rev cl, List.rev rest, zn.covered)

  let rec classes z ~uninformed = function
    | [] -> []
    | items ->
        let cl, rest, cov = pass z ~uninformed items in
        (cl, cov) :: classes z ~uninformed rest
end
