module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph
module Network = Mlbs_wsn.Network
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Interference = Mlbs_phy.Interference
module Udg = Mlbs_phy.Udg

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

let receivers t ~w u =
  Graph.fold_neighbors t.graph u ~init:[] ~f:(fun acc v ->
      if Bitset.mem w v then acc else v :: acc)
  |> List.rev

let n_receivers t ~w u =
  Graph.fold_neighbors t.graph u ~init:0 ~f:(fun acc v ->
      if Bitset.mem w v then acc else acc + 1)

let has_receiver t ~w u = n_receivers t ~w u > 0

let awake t u ~slot =
  match t.system with
  | Sync -> true
  | Async sched -> Wake_schedule.awake sched u ~slot

let frontier t ~w =
  List.rev (Bitset.fold (fun u acc -> if has_receiver t ~w u then u :: acc else acc) w [])

let candidates t ~w ~slot =
  List.filter (fun u -> awake t u ~slot) (frontier t ~w)

(* The conflict predicate [N(u) ∩ N(v) ∩ W̄ ≠ ∅]. Under multi-channel
   the same predicate applies (it is the intra-channel rule; channel
   parallelism lives in the class merge); under SINR the backend's
   pairwise-conservative test takes over. *)
let conflicts_with_uninformed t ~uninformed u v =
  match t.inst with
  | Interference.I_udg _ | Interference.I_mc _ -> Udg.conflicts t.graph ~uninformed u v
  | Interference.I_sinr _ -> Interference.conflicts t.inst ~uninformed u v

let conflicts t ~w u v =
  u <> v
  &&
  let uninformed = Bitset.complement w in
  conflicts_with_uninformed t ~uninformed u v

(* Algorithm 1's visiting order. Total — ids are distinct — so the
   input order of [counts] never shows. *)
let visit_order counts =
  List.stable_sort
    (fun ((u : int), (cu : int)) (v, cv) -> if cu <> cv then compare cv cu else compare u v)
    counts
  |> List.map fst

(* The layer-structured baselines colour pre-counted candidate lists of
   their own making; they never merge channels (a single-channel
   schedule is valid under any channel count). *)
let color_classes t ~uninformed counts =
  Interference.classes (Interference.classifier t.inst) ~uninformed (visit_order counts)
  |> List.map fst

let classes_of_counts t cls ~uninformed counts =
  Interference.classes cls ~uninformed (visit_order counts)
  |> Interference.merge_channels (Interference.channels t.phy)

let greedy_classes t ~w ~slot =
  let counts = List.map (fun u -> (u, n_receivers t ~w u)) (candidates t ~w ~slot) in
  classes_of_counts t (Interference.classifier t.inst) ~uninformed:(Bitset.complement w) counts
  |> List.map fst

let apply t ~w ~senders =
  let w' = Bitset.copy w in
  List.iter
    (fun u ->
      if not (Bitset.mem w u) then
        invalid_arg (Printf.sprintf "Model.apply: sender %d not informed" u);
      Graph.iter_neighbors t.graph u ~f:(fun v -> Bitset.add w' v))
    senders;
  w'

let newly_informed t ~w ~senders =
  let w' = apply t ~w ~senders in
  Bitset.elements (Bitset.diff w' w)

let next_active_slot t ~w ~after =
  match frontier t ~w with
  | [] -> None
  | front -> (
      match t.system with
      | Sync -> Some (after + 1)
      | Async sched ->
          let earliest =
            List.fold_left
              (fun acc u -> min acc (Wake_schedule.next_wake sched u ~after))
              max_int front
          in
          Some earliest)

let complete _t ~w = Bitset.is_full w
