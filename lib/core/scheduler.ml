type policy =
  | Baseline
  | Emodel
  | Gopt of Mcounter.budget
  | Opt of { budget : Mcounter.budget; max_sets : int }

let gopt = Gopt Mcounter.default_budget

let opt = Opt { budget = Mcounter.default_budget; max_sets = 64 }

let name ~system = function
  | Baseline -> ( match system with Model.Sync -> "26-approx" | Model.Async _ -> "17-approx")
  | Emodel -> "E-model"
  | Gopt _ -> "G-OPT"
  | Opt _ -> "OPT"

(* The M-counter choice space and budget of a search-based policy. *)
let search = function
  | Baseline | Emodel -> None
  | Gopt budget -> Some (Choices.Greedy, budget)
  | Opt { budget; max_sets } -> Some (Choices.All { max_sets }, budget)

(* One top-level span per schedule construction, named after the
   policy, so a trace shows which scheduler each round tree belongs
   to. Disabled tracing costs one branch. *)
let with_span model policy ~start f =
  Mlbs_obs.Trace.with_span ~arg:start ~cat:"sched"
    (name ~system:(Model.system model) policy)
    f

let run model policy ~source ~start =
  with_span model policy ~start @@ fun () ->
  match (search policy, policy) with
  | Some (space, budget), _ -> Mcounter.plan model space ~budget ~source ~start
  | None, Emodel -> Emodel.plan model ~source ~start
  | None, _ -> (
      match Model.system model with
      | Model.Sync -> Baseline26.plan model ~source ~start
      | Model.Async _ -> Baseline17.plan model ~source ~start)

(* Gate a snapshot for reuse under [policy]: search-based policy, same
   choice space, exact capture, comfortable budget margin (see
   [Mcounter.snapshot_reusable]). The validity predicate is the
   caller's soundness obligation. *)
let warm_seeds policy snap ~n ~valid =
  match search policy with
  | Some (space, budget) when Mcounter.snapshot_reusable snap ~space ~budget ~n ->
      Some (snap, valid)
  | _ -> None

(* Warm entry point: same schedules as [run], byte for byte, but the
   search-based policies capture their memo snapshot for later reuse
   and accept seeds from a previous one. Policies without a search
   (Baseline, E-model) are already microseconds-cheap: they re-run
   plainly and carry no snapshot. *)
let run_warm model policy ?seeds ~source ~start () =
  match search policy with
  | None -> (run model policy ~source ~start, None)
  | Some (space, budget) ->
      with_span model policy ~start @@ fun () ->
      let s, snap = Mcounter.plan_snapshot ?seeds model space ~budget ~source ~start in
      (s, Some snap)

let all_policies = [ Baseline; opt; gopt; Emodel ]
