module Bitset = Mlbs_util.Bitset
module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Interference = Mlbs_phy.Interference

type slot_event = {
  slot : int;
  senders : int list;
  received : int list;
  collided : (int * int list) list;
}

type outcome = {
  events : slot_event list;
  informed : Bitset.t;
  violations : string list;
  dropped : (int * int) list;
  lost : (int * int * int) list;
}

let replay ?(allow_resend = false) ?(faults = Fault.none) model schedule =
  let n = Model.n_nodes model in
  let fault_active = not (Fault.is_noop faults) in
  (* Under jitter a node's true wake sequence drifts from the one the
     scheduler planned against; the replay judges senders by the truth. *)
  let clock = Fault.own_clock faults model in
  let w = Bitset.create n in
  Bitset.add w (Schedule.source schedule);
  let inst = Model.phy_instance model in
  (* Reception can need the *claimed* informed set: multi-channel
     receivers derive their tuning from the schedule's plan (they cannot
     observe faults), so the slot context is built against the informed
     set the schedule claims, not the replay's ground truth. *)
  let claimed_w = Bitset.create n in
  Bitset.add claimed_w (Schedule.source schedule);
  let has_sent = Bitset.create n in
  let violations = ref [] in
  let dropped = ref [] in
  let lost = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let events =
    List.map
      (fun (step : Schedule.step) ->
        let slot = step.Schedule.slot in
        (* Crashed senders emit nothing. *)
        let senders, crashed =
          List.partition (fun u -> Fault.alive faults ~slot u) step.Schedule.senders
        in
        List.iter (fun u -> dropped := (slot, u) :: !dropped) crashed;
        (* Well-formedness: fault-free, a sender must hold the message
           and be awake; double transmission is always a schedule bug. *)
        List.iter
          (fun u ->
            if (not fault_active) && not (Bitset.mem w u) then
              violate "slot %d: sender %d does not hold the message" slot u;
            if Bitset.mem has_sent u && not allow_resend then
              violate "slot %d: sender %d already transmitted" slot u;
            if (not fault_active) && not (Model.awake_in clock u ~slot) then
              violate "slot %d: sender %d is asleep" slot u;
            Bitset.add has_sent u)
          senders;
        (* A sender without the message emits (and interferes) nothing.
           Under faults that is legitimate — its copy was lost upstream
           — as is a sender jitter put to sleep: both go to [dropped]. *)
        let effective =
          List.filter
            (fun u ->
              let airs =
                Bitset.mem w u && ((not fault_active) || Model.awake_in clock u ~slot)
              in
              if fault_active && not airs then dropped := (slot, u) :: !dropped;
              airs)
            senders
        in
        (* Reception: an uninformed node hearing exactly one transmission
           receives — if the payload survives the link; corrupted
           packets still interfere. Hearing several is a collision.
           Crashed nodes hear nothing. *)
        let received = ref [] and collided = ref [] in
        let ctx =
          Interference.slot_ctx inst ~uninformed:(Bitset.complement claimed_w)
            ~scheduled:step.Schedule.senders
        in
        (* A lossy run may overflow the channels like it may collide;
           a schedule may not. *)
        if Interference.overflow ctx && not allow_resend then
          violate "slot %d: senders need more than %d channel(s)" slot
            (Interference.channels (Model.phy model));
        for v = n - 1 downto 0 do
          if (not (Bitset.mem w v)) && Fault.alive faults ~slot v then
            match Interference.reception ctx ~effective ~rx:v with
            | Interference.Silent -> ()
            | Interference.Delivered u ->
                if Fault.delivers ~slot ~tx:u ~rx:v faults then received := v :: !received
                else lost := (slot, u, v) :: !lost
            | Interference.Collision several -> collided := (v, several) :: !collided
        done;
        List.iter (Bitset.add claimed_w) step.Schedule.informed;
        List.iter (Bitset.add w) !received;
        (* Cross-check the scheduler's claim against the replay (not
           meaningful when faults were injected). *)
        if
          (not fault_active)
          && !received <> List.sort_uniq compare step.Schedule.informed
        then violate "slot %d: claimed informed set differs from radio outcome" slot;
        { slot; senders; received = !received; collided = !collided })
      (Schedule.steps schedule)
  in
  {
    events;
    informed = w;
    violations = List.rev !violations;
    dropped = List.rev !dropped;
    lost = List.rev !lost;
  }
