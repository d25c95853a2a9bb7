module Bfs = Mlbs_graph.Bfs

(* Colour the relays of one BFS layer: relays are the layer members with
   an uninformed neighbour; "uninformed" for both receivers and the
   conflict clique is everything deeper than the layer — that is what a
   hop-distance scheme knows. *)
let layer_classes ist layer =
  let counts =
    List.filter_map
      (fun u ->
        let k = Istate.uncov ist u in
        if k > 0 then Some (u, k) else None)
      layer
  in
  Model.color_classes (Istate.model ist) ~uninformed:(Istate.ubar ist) counts

let layered ~name layering model ~source ~start =
  (match Model.system model with
  | Model.Sync -> ()
  | Model.Async _ -> invalid_arg (name ^ ": synchronous model required"));
  let ist = Istate.create (Model.n_nodes model) in
  Istate.reset ist model ~w:(Model.initial_w model ~source);
  let t = ref start in
  let steps = ref [] in
  List.iter
    (fun layer ->
      (* One layer's colors fire in consecutive rounds before the next
         layer may start. *)
      List.iter
        (fun senders ->
          Istate.apply ist ~senders;
          let informed = Istate.last_added ist in
          steps := { Schedule.slot = !t; senders; informed } :: !steps;
          incr t)
        (layer_classes ist layer))
    (layering model ~source);
  if not (Istate.complete ist) then
    failwith (name ^ ": broadcast did not cover the network (disconnected?)");
  Schedule.make ~n_nodes:(Model.n_nodes model) ~source ~start (List.rev !steps)

let plan =
  layered ~name:"Baseline26.plan" (fun model ~source -> Bfs.layers (Model.graph model) ~source)
