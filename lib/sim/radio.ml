module Bitset = Mlbs_util.Bitset
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
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

let replay ?(allow_resend = false) ?failed ?(faults = Fault.none) model schedule =
  let n = Model.n_nodes model in
  let failed = match failed with Some f -> f | None -> Bitset.create n in
  let fault_active = not (Fault.is_noop faults) in
  let inject_failures = not (Bitset.is_empty failed) || fault_active in
  let alive ~slot u = (not (Bitset.mem failed u)) && Fault.alive faults ~slot u in
  (* Under jitter a node's true wake sequence drifts from the one the
     scheduler planned against; the replay judges senders by the truth. *)
  let jittered_sched =
    match Model.system model with
    | Model.Sync -> None
    | Model.Async sched -> Some (Fault.jittered faults sched)
  in
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
        (* Crashed/failed senders emit nothing. *)
        let senders, crashed =
          List.partition (fun u -> alive ~slot u) step.Schedule.senders
        in
        List.iter (fun u -> dropped := (slot, u) :: !dropped) crashed;
        let effective =
          if not fault_active then begin
            (* Fault-free path: exactly the original well-formedness
               checks, byte-identical violations. *)
            List.iter
              (fun u ->
                if not (Bitset.mem w u) then
                  violate "slot %d: sender %d does not hold the message" slot u;
                if Bitset.mem has_sent u && not allow_resend then
                  violate "slot %d: sender %d already transmitted" slot u;
                (match Model.system model with
                | Model.Sync -> ()
                | Model.Async sched ->
                    if not (Wake_schedule.awake sched u ~slot) then
                      violate "slot %d: sender %d is asleep" slot u);
                Bitset.add has_sent u)
              senders;
            (* A sender that does not hold the message has nothing to
               emit: it is flagged above but cannot deliver (or
               interfere). *)
            List.filter (fun u -> Bitset.mem w u) senders
          end
          else begin
            (* Under faults a scheduled sender may legitimately lack the
               message (its own copy was lost upstream) or be asleep
               (jitter): it simply stays silent. Double transmission
               remains a schedule bug. *)
            List.iter
              (fun u ->
                if Bitset.mem has_sent u && not allow_resend then
                  violate "slot %d: sender %d already transmitted" slot u;
                Bitset.add has_sent u)
              senders;
            List.filter
              (fun u ->
                let holds = Bitset.mem w u in
                let awake =
                  match jittered_sched with
                  | None -> true
                  | Some sched -> Wake_schedule.awake sched u ~slot
                in
                if not (holds && awake) then dropped := (slot, u) :: !dropped;
                holds && awake)
              senders
          end
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
        (match inst with
        | Interference.I_mc { k; _ } ->
            let used = Interference.slot_channels ctx in
            if used > k then
              violate "slot %d: senders need %d channels but only %d exist" slot used k
        | _ -> ());
        for v = n - 1 downto 0 do
          if (not (Bitset.mem w v)) && alive ~slot v then
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
           meaningful when failures were injected). *)
        if
          (not inject_failures)
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
