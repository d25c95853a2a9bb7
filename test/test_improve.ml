(* The GLS/VNS improvement engine's contract: every schedule it returns
   is exactly as trustworthy as the construction it started from. The
   qcheck properties drive random small deployments under all three
   interference backends and check (1) the result always replays clean
   on the radio simulator and never regresses the start, (2) the whole
   search is a pure function of (model, schedule, seed, budget), (3)
   quality is monotone in the budget per seed, (4) budget 0 is a
   byte-identical no-op. *)

module Interference = Mlbs_phy.Interference
module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Scheduler = Mlbs_core.Scheduler
module Validate = Mlbs_sim.Validate
module Improve = Mlbs_search.Improve

let bytes_of = Mlbs_server.Codec.schedule_bytes

(* ------------------------- qcheck cases ---------------------------- *)

let phys =
  [ Interference.Udg; Interference.Sinr Interference.default_sinr;
    Interference.Multichannel 3 ]

(* A random instance (all three interference backends, sync or
   duty-cycled) plus its Baseline start schedule — the start with the
   most slack, so acceptance paths actually execute. *)
let gen_case =
  QCheck2.Gen.(
    let* n = int_range 8 24 in
    let* seed = int_bound 10000 in
    let* phy = oneofl phys in
    let* rate = option (int_range 2 6) in
    let* search_seed = int_bound 1000 in
    let net = Test_support.small_network ~n ~seed in
    let system =
      match rate with
      | None -> Model.Sync
      | Some rate ->
          Model.Async (Mlbs_dutycycle.Wake_schedule.create ~rate ~n_nodes:n ~seed ())
    in
    let model = Model.create ~phy net system in
    let plan = Scheduler.run model Scheduler.Baseline ~source:0 ~start:1 in
    return (model, plan, search_seed))

let valid_and_never_worse (model, plan, seed) =
  let o = Improve.improve ~seed ~budget:300 model plan in
  (Validate.check model o.Improve.schedule).Validate.ok
  && Schedule.elapsed o.Improve.schedule <= Schedule.elapsed plan
  && o.Improve.improved
     = (Schedule.elapsed o.Improve.schedule < Schedule.elapsed plan)

let deterministic_per_seed (model, plan, seed) =
  let o1 = Improve.improve ~seed ~budget:250 model plan in
  let o2 = Improve.improve ~seed ~budget:250 model plan in
  bytes_of o1.Improve.schedule = bytes_of o2.Improve.schedule
  && o1.Improve.evals = o2.Improve.evals
  && o1.Improve.accepted = o2.Improve.accepted

(* A longer run with the same seed replays the shorter run's trajectory
   as a prefix and the incumbent only ever improves, so quality is
   monotone in the budget. *)
let monotone_in_budget (model, plan, seed) =
  let at budget = Schedule.elapsed (Improve.improve ~seed ~budget model plan).Improve.schedule in
  let e100 = at 100 and e400 = at 400 in
  e400 <= e100 && e100 <= Schedule.elapsed plan

let budget_zero_noop (model, plan, seed) =
  let o = Improve.improve ~seed ~budget:0 model plan in
  bytes_of o.Improve.schedule = bytes_of plan
  && (not o.Improve.improved)
  && o.Improve.evals = 0

let prop ?(count = 40) name f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen_case f)

let () =
  Alcotest.run "improve"
    [
      ( "engine",
        [
          prop "result replays clean and never regresses" valid_and_never_worse;
          prop "deterministic per (model, schedule, seed, budget)" deterministic_per_seed;
          prop ~count:25 "quality monotone in budget" monotone_in_budget;
          prop "budget 0 is a byte-identical no-op" budget_zero_noop;
        ] );
    ]
