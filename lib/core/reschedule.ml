module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph
module Network = Mlbs_wsn.Network
module Interference = Mlbs_phy.Interference
module Metrics = Mlbs_obs.Metrics
module Trace = Mlbs_obs.Trace

type report = {
  schedule : Schedule.t;
  model : Model.t;
  warm : bool;
  snapshot : Mcounter.snapshot option;
}

let m_repairs = Metrics.counter "reschedule/repairs"
let m_warm = Metrics.counter "reschedule/warm"

let reschedule model policy ?snapshot ?snapshot_graph ?source ~old_schedule ~added
    ~removed ~rewired () =
  Trace.with_span ~arg:(List.length added + List.length removed + List.length rewired)
    ~cat:"sched" "reschedule"
  @@ fun () ->
  let source = match source with Some s -> s | None -> Schedule.source old_schedule in
  let start = Schedule.start old_schedule in
  let n = Model.n_nodes model in
  if Schedule.n_nodes old_schedule <> n then
    invalid_arg "Reschedule.reschedule: schedule/model node counts differ";
  let g = Model.graph model in
  let g' = Graph.edit g ~add:added ~remove:removed ~rewire:rewired in
  (* The repaired model inherits the interference backend: a daemon-side
     repair and a direct re-solve of the edited adjacency must bind the
     same model (and, for SINR, the same synthetic geometry) or their
     schedules stop being byte-comparable. *)
  let model' =
    Model.create ~phy:(Model.phy model) (Network.synthetic g') (Model.system model)
  in
  (* Warm start: seed the search with every memo entry whose informed
     set contains all endpoints of the diff between the snapshot's
     graph (the base graph unless the snapshot came from another
     family member, e.g. a previous repair in a churn chain) and the
     edited graph. Below such a set the search only reads edges with
     an uninformed endpoint, and both endpoints of every differing
     edge are in the diff, so the entry's value is the same on both
     graphs. *)
  let seeds =
    match snapshot with
    | None -> None
    (* The subset-validity argument below is graph-wise; a
       geometry-dependent model makes the snapshot's memo values a
       function of the deployment it was computed on, so it must not
       steer this solve (the edited model lives on synthetic
       geometry). *)
    | Some _ when Interference.geometry_dependent (Model.phy model) -> None
    | Some snap ->
        let snap_g = Option.value snapshot_graph ~default:g in
        if Graph.n_nodes snap_g <> n then None
        else
          let seps = Bitset.of_list n (Graph.diff_endpoints snap_g g') in
          Scheduler.warm_seeds policy snap ~n ~valid:(fun w -> Bitset.subset seps w)
  in
  let warm = seeds <> None in
  let schedule, snapshot' = Scheduler.run_warm model' policy ?seeds ~source ~start () in
  Metrics.incr m_repairs;
  if warm then Metrics.incr m_warm;
  { schedule; model = model'; warm; snapshot = snapshot' }
