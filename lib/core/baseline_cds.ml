module Bitset = Mlbs_util.Bitset
module Bfs = Mlbs_graph.Bfs
module Cds = Mlbs_graph.Cds
module Graph = Mlbs_graph.Graph

(* The message travels along the backbone only, so layers are hop
   distances *within* the induced backbone subgraph (a graph-wide BFS
   layer could contain a backbone node whose backbone path is longer,
   which would strand it). The backbone is connected and the source is
   adjacent to it, so the induced BFS reaches every relay. *)
let backbone_layers model ~source =
  let g = Model.graph model in
  let n = Model.n_nodes model in
  let backbone = Bitset.of_list n (Cds.greedy g) in
  Bitset.add backbone source;
  let backbone_edges =
    List.filter (fun (u, v) -> Bitset.mem backbone u && Bitset.mem backbone v) (Graph.edges g)
  in
  Bfs.layers (Graph.of_edges ~n backbone_edges) ~source

let plan = Baseline26.layered ~name:"Baseline_cds.plan" backbone_layers
