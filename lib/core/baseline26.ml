module Bitset = Mlbs_util.Bitset
module Bfs = Mlbs_graph.Bfs

(* Colour the relays of one BFS layer: relays are the layer members with
   an uninformed neighbour; "uninformed" for both receivers and the
   conflict clique is everything deeper than the layer — that is what a
   hop-distance scheme knows. *)
let layer_classes model ~w layer =
  let relays = List.filter (fun u -> Model.n_receivers model ~w u > 0) layer in
  let uninformed = Bitset.complement w in
  let counts = List.map (fun u -> (u, Model.n_receivers model ~w u)) relays in
  Model.color_classes model ~uninformed counts

let layered ~name layering model ~source ~start =
  (match Model.system model with
  | Model.Sync -> ()
  | Model.Async _ -> invalid_arg (name ^ ": synchronous model required"));
  let w = ref (Model.initial_w model ~source) in
  let t = ref start in
  let steps = ref [] in
  List.iter
    (fun layer ->
      (* One layer's colors fire in consecutive rounds before the next
         layer may start. *)
      let classes = layer_classes model ~w:!w layer in
      List.iter
        (fun senders ->
          let w' = Model.apply model ~w:!w ~senders in
          let informed = Bitset.elements (Bitset.diff w' !w) in
          steps := { Schedule.slot = !t; senders; informed } :: !steps;
          incr t;
          w := w')
        classes)
    (layering model ~source);
  if not (Model.complete model ~w:!w) then
    failwith (name ^ ": broadcast did not cover the network (disconnected?)");
  Schedule.make ~n_nodes:(Model.n_nodes model) ~source ~start (List.rev !steps)

let plan =
  layered ~name:"Baseline26.plan" (fun model ~source -> Bfs.layers (Model.graph model) ~source)
