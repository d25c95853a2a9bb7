(* Delta repair must be invisible in the output: a repaired schedule is
   byte-for-byte the schedule a from-scratch [Scheduler.run] produces on
   the edited model — under chained drift, arbitrary edge add/remove
   deltas, warm or cold, sync or duty-cycled. The suite walks random
   churn chains comparing canonical schedule bytes at every step. *)

module Rng = Mlbs_prng.Rng
module Graph = Mlbs_graph.Graph
module Network = Mlbs_wsn.Network
module Churn = Mlbs_wsn.Churn
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Model = Mlbs_core.Model
module Scheduler = Mlbs_core.Scheduler
module Reschedule = Mlbs_core.Reschedule
module Codec = Mlbs_server.Codec

let bytes_of = Codec.schedule_bytes

(* Drift displacements of radius/5, as in the churn bench and CLI. *)
let jitter = 2.0

let policies = [ Scheduler.Baseline; Scheduler.Emodel; Scheduler.gopt ]

let gen_instance =
  QCheck2.Gen.(
    let* n = int_range 8 13 in
    let* seed = int_bound 100000 in
    let* policy = oneofl policies in
    let* duty = bool in
    let* rate = int_range 2 6 in
    let net = Test_support.small_network ~n ~seed in
    let system =
      if duty then Model.Async (Wake_schedule.create ~rate ~n_nodes:n ~seed ())
      else Model.Sync
    in
    return (net, system, policy))

let gen_walk = QCheck2.Gen.(pair gen_instance (list_size (int_range 1 4) small_int))

(* ----------------------- chained drift walks ----------------------- *)

(* Follow a churn chain: each repair consumes the previous step's
   model, schedule and memo snapshot (the snapshot's graph is the
   model's — the [?snapshot_graph] default). Every repaired
   schedule must equal the cold solve of its own model. [Churn.drift]
   gives up on deployments it cannot keep connected; those walks prove
   nothing and pass vacuously. *)
let walk_byte_equal ((net, system, policy), moves) =
  let model0 = Model.create net system in
  let source = 0 in
  try
    let sched0, snap0 = Scheduler.run_warm model0 policy ~source ~start:1 () in
    let rng = Rng.create 0xC4A1 in
    let rec step net model sched snap = function
      | [] -> true
      | k :: rest ->
          let d = Churn.drift rng net ~k:(1 + (abs k mod 3)) ~jitter in
          let rep =
            Reschedule.reschedule model policy ?snapshot:snap ~source
              ~old_schedule:sched ~added:[] ~removed:[] ~rewired:d.Churn.rewired ()
          in
          let fresh = Scheduler.run rep.Reschedule.model policy ~source ~start:1 in
          bytes_of rep.Reschedule.schedule = bytes_of fresh
          && step d.Churn.network rep.Reschedule.model rep.Reschedule.schedule
               rep.Reschedule.snapshot rest
    in
    step net model0 sched0 snap0 moves
  with Failure _ -> true

(* A stale snapshot — the base solve's, several drifts old, named via
   [?snapshot_graph] — may only shrink the seed set, never change the
   schedule. This is a churn chain that kept only an earlier member's
   snapshot. *)
let stale_snapshot_byte_equal ((net, system, policy), moves) =
  let model0 = Model.create net system in
  let source = 0 in
  let g0 = Model.graph model0 in
  try
    let sched0, snap0 = Scheduler.run_warm model0 policy ~source ~start:1 () in
    let rng = Rng.create 0xBEEF in
    let rec step net model sched = function
      | [] -> true
      | k :: rest ->
          let d = Churn.drift rng net ~k:(1 + (abs k mod 3)) ~jitter in
          let rep =
            Reschedule.reschedule model policy ?snapshot:snap0 ~snapshot_graph:g0
              ~source ~old_schedule:sched ~added:[] ~removed:[]
              ~rewired:d.Churn.rewired ()
          in
          let fresh = Scheduler.run rep.Reschedule.model policy ~source ~start:1 in
          bytes_of rep.Reschedule.schedule = bytes_of fresh
          && step d.Churn.network rep.Reschedule.model rep.Reschedule.schedule rest
    in
    step net model0 sched0 moves
  with Failure _ -> true

(* ----------------------- add/remove deltas ------------------------- *)

(* Edge add/remove deltas (node pairs drawn blind, partitioned against
   the current adjacency) exercise the [~added]/[~removed] arms the
   drift walks never touch. Deltas that disconnect the source raise
   [Failure] — the documented contract, accepted here. *)
let add_remove_byte_equal ((net, system, policy), pairs) =
  let model = Model.create net system in
  let n = Model.n_nodes model in
  let g = Model.graph model in
  let source = 0 in
  let norm (a, b) = (min (abs a mod n) (abs b mod n), max (abs a mod n) (abs b mod n)) in
  let pairs =
    List.sort_uniq compare (List.filter (fun (u, v) -> u <> v) (List.map norm pairs))
  in
  let added, removed = List.partition (fun (u, v) -> not (Graph.mem_edge g u v)) pairs in
  try
    let sched, snap = Scheduler.run_warm model policy ~source ~start:1 () in
    let rep =
      Reschedule.reschedule model policy ?snapshot:snap ~source ~old_schedule:sched
        ~added ~removed ~rewired:[] ()
    in
    let fresh = Scheduler.run rep.Reschedule.model policy ~source ~start:1 in
    bytes_of rep.Reschedule.schedule = bytes_of fresh
  with Failure _ -> true

let prop ?(count = 30) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_pairs =
  QCheck2.Gen.(pair gen_instance (list_size (int_range 1 6) (pair small_int small_int)))

let () =
  Alcotest.run "reschedule"
    [
      ( "byte equality",
        [
          prop "chained drift repair = from-scratch solve" gen_walk walk_byte_equal;
          prop ~count:20 "stale base snapshot still byte-identical" gen_walk
            stale_snapshot_byte_equal;
          prop "add/remove delta repair = from-scratch solve" gen_pairs
            add_remove_byte_equal;
        ] );
    ]
