module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph
module Network = Mlbs_wsn.Network
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Interference = Mlbs_phy.Interference

type system = Sync | Async of Wake_schedule.t

type t = {
  net : Network.t;
  graph : Graph.t;
  system : system;
  phy : Interference.t;
  inst : Interference.instance;
}

let create ?(phy = Interference.Udg) net system =
  (match system with
  | Sync -> ()
  | Async sched ->
      if Wake_schedule.n_nodes sched < Network.n_nodes net then
        invalid_arg "Model.create: wake schedule covers fewer nodes than the network");
  { net; graph = Network.graph net; system; phy; inst = Interference.bind phy net }

let network t = t.net
let graph t = t.graph
let system t = t.system
let phy t = t.phy
let phy_instance t = t.inst
let n_nodes t = Network.n_nodes t.net

let initial_w t ~source =
  let n = n_nodes t in
  if source < 0 || source >= n then invalid_arg "Model.initial_w: source out of range";
  let w = Bitset.create n in
  Bitset.add w source;
  w

let n_receivers t ~w u =
  Graph.fold_neighbors t.graph u ~init:0 ~f:(fun acc v ->
      if Bitset.mem w v then acc else acc + 1)

let awake_in system u ~slot =
  match system with Sync -> true | Async sched -> Wake_schedule.awake sched u ~slot

let next_wake system u ~after =
  match system with Sync -> after + 1 | Async sched -> Wake_schedule.next_wake sched u ~after

let awake t u ~slot = awake_in t.system u ~slot

(* The layer-structured baselines and the localized runner colour
   pre-counted candidate lists of their own making; they never merge
   channels (a single-channel schedule is valid under any channel
   count). *)
let color_classes t ~uninformed counts =
  Interference.classes (Interference.classifier t.inst) ~uninformed
    (Interference.visit_order counts)

let complete _t ~w = Bitset.is_full w
