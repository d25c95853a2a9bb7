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
