module Bitset = Mlbs_util.Bitset
module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Interference = Mlbs_phy.Interference
module Fault = Mlbs_sim.Fault

type variant = Once | Persistent of float

type result = {
  schedule : Schedule.t;
  covered : bool;
  informed : int;
  latency : int;
  collisions : int;
  retransmissions : int;
}

(* Reproducible coin: does node [u] fire at [slot] under persistence
   [p]?  Hash to a unit float. *)
let coin u slot p =
  let h = ((u * 0x9E3779B1) lxor (slot * 0x85EBCA77)) land max_int in
  float_of_int (h mod 1_000_000) /. 1_000_000. < p

let run ?max_slots ?(faults = Fault.none) model variant ~source ~start =
  (match variant with
  | Persistent p when p <= 0. || p > 1. ->
      invalid_arg "Flooding.run: persistence outside (0, 1]"
  | _ -> ());
  let n = Model.n_nodes model in
  let max_slots = Online.max_slots model max_slots in
  let clock = Fault.own_clock faults model in
  let w = Model.initial_w model ~source in
  let has_sent = Array.make n 0 in
  let steps = ref [] in
  let collisions = ref 0 in
  let wants u ~slot =
    Bitset.mem w u
    && Fault.alive faults ~slot u
    && Model.awake_in clock u ~slot
    && Model.n_receivers model ~w u > 0
    &&
    match variant with
    | Once -> has_sent.(u) = 0
    | Persistent p -> coin u slot p
  in
  let pending_exists () =
    (* For [Once]: someone informed, un-sent, with uninformed
       neighbours, might still fire at a future wake. *)
    List.exists
      (fun u -> Bitset.mem w u && has_sent.(u) = 0 && Model.n_receivers model ~w u > 0)
      (List.init n Fun.id)
  in
  let rec loop slot last_tx =
    if Model.complete model ~w then (true, last_tx)
    else if slot - start >= max_slots then (false, last_tx)
    else if variant = Once && not (pending_exists ()) then (false, last_tx)
    else begin
      let senders = List.filter (fun u -> wants u ~slot) (List.init n Fun.id) in
      if senders = [] then loop (slot + 1) last_tx
      else begin
        let received = ref [] in
        (* A corrupted packet still interferes: the radio decides who is
           decodable, then the per-link roll whether the payload
           survives. *)
        Online.air model ~informed:w ~senders
          ~hears:(fun v -> Fault.alive faults ~slot v)
          (fun v -> function
            | Interference.Silent -> ()
            | Interference.Delivered u ->
                if Fault.delivers ~slot ~tx:u ~rx:v faults then received := v :: !received
            | Interference.Collision _ -> incr collisions);
        List.iter (fun u -> has_sent.(u) <- has_sent.(u) + 1) senders;
        List.iter (Bitset.add w) !received;
        steps := { Schedule.slot; senders; informed = List.sort compare !received } :: !steps;
        loop (slot + 1) slot
      end
    end
  in
  let covered, last_tx = loop start (start - 1) in
  let schedule = Schedule.make ~n_nodes:n ~source ~start (List.rev !steps) in
  {
    schedule;
    covered;
    informed = Bitset.cardinal w;
    latency = (if last_tx < start then 0 else last_tx - start + 1);
    collisions = !collisions;
    retransmissions = Array.fold_left (fun acc k -> acc + max 0 (k - 1)) 0 has_sent;
  }
