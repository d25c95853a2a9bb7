module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph
module Model = Mlbs_core.Model
module Emodel = Mlbs_core.Emodel
module Schedule = Mlbs_core.Schedule
module Interference = Mlbs_phy.Interference

type result = {
  schedule : Schedule.t;
  latency : int;
  collisions : int;
  retransmissions : int;
}

let run ?max_slots model ~source ~start =
  let tuples = Emodel.compute model in
  let g = Model.graph model in
  let n = Model.n_nodes model in
  let max_slots = Online.max_slots model max_slots in
  let w = Model.initial_w model ~source in
  let has_sent = Array.make n 0 in
  let silent_until = Array.make n 0 in
  let fails = Array.make n 0 in
  let stalled = Array.make n 0 in
  let steps = ref [] in
  let collisions = ref 0 in
  (* 2-hop visibility, precomputed once. *)
  let two_hop =
    Array.init n (fun u ->
        let seen = Bitset.create n in
        Graph.iter_neighbors g u ~f:(fun v ->
            Bitset.add seen v;
            Graph.iter_neighbors g v ~f:(Bitset.add seen));
        Bitset.add seen u;
        seen)
  in
  (* One node's local decision: colour the candidates inside its 2-hop
     view and fire iff it sits in the Eq.-10-selected class. *)
  let wants_to_send u ~candidates =
    let visible = List.filter (fun v -> Bitset.mem two_hop.(u) v) candidates in
    let uninformed = Bitset.complement w in
    let counts = List.map (fun v -> (v, Model.n_receivers model ~w v)) visible in
    match Model.color_classes model ~uninformed counts with
    | [] -> false
    | classes ->
        let chosen = Emodel.select tuples model ~w ~classes in
        List.mem u (List.nth classes chosen)
  in
  let candidate u ~slot =
    Bitset.mem w u
    && Model.n_receivers model ~w u > 0
    && Model.awake model u ~slot
    && silent_until.(u) <= slot
  in
  let rec loop slot =
    if Model.complete model ~w then slot - 1
    else if slot - start >= max_slots then
      failwith
        (Printf.sprintf "Localized.run: no convergence within %d slots (protocol livelock?)"
           max_slots)
    else begin
      let candidates = List.filter (fun u -> candidate u ~slot) (List.init n Fun.id) in
      let senders =
        List.filter
          (fun u -> stalled.(u) >= Online.stall_limit || wants_to_send u ~candidates)
          candidates
      in
      Online.note_stalls g stalled ~senders ~eligible:(fun u -> candidate u ~slot);
      if senders = [] then loop (slot + 1)
      else begin
        let received = ref [] in
        Online.air model ~informed:w ~senders
          ~hears:(fun _ -> true)
          (fun v -> function
            | Interference.Silent -> ()
            | Interference.Delivered _ -> received := v :: !received
            | Interference.Collision _ -> incr collisions);
        List.iter
          (fun u ->
            has_sent.(u) <- has_sent.(u) + 1;
            (* Did this relay finish its neighbourhood? Overhearing and
               the absence of beacon requests tell it; if receivers
               remain it backs off for a number of its own active slots
               before retrying. *)
            let remaining =
              Graph.fold_neighbors g u ~init:0 ~f:(fun acc v ->
                  if Bitset.mem w v || List.mem v !received then acc else acc + 1)
            in
            if remaining > 0 then begin
              fails.(u) <- fails.(u) + 1;
              silent_until.(u) <-
                Online.nth_wake (Model.system model) u slot (Online.backoff u fails.(u) + 1)
            end)
          senders;
        List.iter (Bitset.add w) !received;
        steps := { Schedule.slot; senders; informed = List.sort compare !received } :: !steps;
        loop (slot + 1)
      end
    end
  in
  let finish = loop start in
  let schedule = Schedule.make ~n_nodes:n ~source ~start (List.rev !steps) in
  let retransmissions = Array.fold_left (fun acc k -> acc + max 0 (k - 1)) 0 has_sent in
  { schedule; latency = finish - start + 1; collisions = !collisions; retransmissions }
