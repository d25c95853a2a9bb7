module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Model = Mlbs_core.Model
module Interference = Mlbs_phy.Interference

let max_slots model = function
  | Some m -> m
  | None ->
      let rate = match Model.system model with Model.Sync -> 1 | Model.Async s -> Wake_schedule.rate s in
      64 * Model.n_nodes model * rate

let air model ~informed ~senders ~hears f =
  let ctx =
    Interference.slot_ctx (Model.phy_instance model)
      ~uninformed:(Bitset.complement informed) ~scheduled:senders
  in
  for rx = 0 to Model.n_nodes model - 1 do
    if (not (Bitset.mem informed rx)) && hears rx then
      f rx (Interference.reception ctx ~effective:senders ~rx)
  done

let stall_limit = 4

let note_stalls graph stalled ~senders ~eligible =
  let heard = Bitset.create (Array.length stalled) in
  List.iter
    (fun u ->
      Bitset.add heard u;
      Graph.iter_neighbors graph u ~f:(Bitset.add heard))
    senders;
  Array.iteri
    (fun u s ->
      if Bitset.mem heard u then stalled.(u) <- 0
      else if eligible u then stalled.(u) <- s + 1)
    stalled

let backoff u k =
  let window = 1 lsl min k 6 in
  let h = (u * 2654435761) lxor (k * 40503) in
  (h land max_int) mod window

let rec nth_wake system u t k =
  if k <= 0 then t else nth_wake system u (Model.next_wake system u ~after:t) (k - 1)
