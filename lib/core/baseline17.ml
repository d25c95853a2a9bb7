module Bitset = Mlbs_util.Bitset
module Bfs = Mlbs_graph.Bfs
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Interference = Mlbs_phy.Interference

(* Would [senders], firing together at the current position, inform
   exactly their uninformed neighbours on the model's radio? The check
   the replay makes of every step. *)
let replays_clean ist senders =
  let ctx =
    Interference.slot_ctx
      (Model.phy_instance (Istate.model ist))
      ~uninformed:(Istate.ubar ist) ~scheduled:senders
  in
  (not (Interference.overflow ctx))
  && Bitset.for_all
       (fun rx ->
         match Interference.reception ctx ~effective:senders ~rx with
         | Interference.Delivered _ -> true
         | Interference.Silent | Interference.Collision _ -> false)
       (Istate.coverage ist ~senders)

let plan model ~source ~start =
  let sched =
    match Model.system model with
    | Model.Async s -> s
    | Model.Sync -> invalid_arg "Baseline17.plan: duty-cycle model required"
  in
  let layers = Bfs.layers (Model.graph model) ~source in
  let ist = Istate.create (Model.n_nodes model) in
  Istate.reset ist model ~w:(Model.initial_w model ~source);
  (* release = the slot after which the next color may begin sending. *)
  let release = ref (start - 1) in
  let steps = ref [] in
  (* Transmissions of one color: every sender fires at its own next
     wake-up after the color is released; group them per slot. A slot's
     group is only part of the color, and under SINR it can lack the
     capturer one of its receivers decoded from. A group that would not
     replay clean at the current W is split with the model's class
     builder: its first class fires, and the rest re-time to their next
     wake-ups after the slot. *)
  let split group =
    let counts = List.map (fun u -> (u, Istate.uncov ist u)) group in
    match Model.color_classes model ~uninformed:(Istate.ubar ist) counts with
    | first :: _ -> (first, List.filter (fun u -> not (List.mem u first)) group)
    | [] -> assert false
  in
  let rec fire pending =
    match List.sort compare pending with
    | [] -> ()
    | (slot, _) :: _ as sorted ->
        let group, later = List.partition (fun (s, _) -> s = slot) sorted in
        let group = List.map snd group in
        let senders, retimed = if replays_clean ist group then (group, []) else split group in
        Istate.apply ist ~senders;
        let informed = Istate.last_added ist in
        steps := { Schedule.slot; senders; informed } :: !steps;
        release := max !release slot;
        fire (List.map (fun u -> (Wake_schedule.next_wake sched u ~after:slot, u)) retimed @ later)
  in
  let fire_class senders =
    fire (List.map (fun u -> (Wake_schedule.next_wake sched u ~after:!release, u)) senders)
  in
  List.iter
    (fun layer ->
      let classes = Baseline26.layer_classes ist layer in
      List.iter (fun senders -> if senders <> [] then fire_class senders) classes)
    layers;
  if not (Istate.complete ist) then
    failwith "Baseline17.plan: broadcast did not cover the network (disconnected?)";
  Schedule.make ~n_nodes:(Model.n_nodes model) ~source ~start (List.rev !steps)
