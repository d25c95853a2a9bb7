module Bitset = Mlbs_util.Bitset
module Interference = Mlbs_phy.Interference

type report = {
  ok : bool;
  collisions : int;
  missing : int list;
  violations : string list;
}

let summarize outcome ~collision_free =
  let collisions =
    List.fold_left (fun acc e -> acc + List.length e.Radio.collided) 0 outcome.Radio.events
  in
  let missing = Bitset.elements (Bitset.complement outcome.Radio.informed) in
  let ok =
    ((not collision_free) || collisions = 0)
    && missing = []
    && outcome.Radio.violations = []
  in
  { ok; collisions; missing; violations = outcome.Radio.violations }

let check model schedule = summarize (Radio.replay model schedule) ~collision_free:true

let check_lossy model schedule =
  summarize (Radio.replay ~allow_resend:true model schedule) ~collision_free:false

type fault_report = {
  ok : bool;
  delivered : int;
  alive : int;
  delivery_ratio : float;
  latency : int;
  collisions : int;
  lost : int;
  violations : string list;
}

let check_under_faults ?(allow_resend = false) model ~faults schedule =
  let outcome = Radio.replay ~allow_resend ~faults model schedule in
  let n = Mlbs_core.Model.n_nodes model in
  (* Independent re-derivation: every reception the replay granted must
     be explainable as exactly one audible (alive, informed, awake)
     sender whose packet survived its link roll. This re-asks the fault
     plan directly — [Fault.delivers]/[alive] are pure in (seed, slot,
     link), so agreement means the delivered receptions really are
     conflict-free under the fault trace, not just self-consistent. *)
  let clock = Fault.own_clock faults model in
  let informed = Bitset.create n in
  Bitset.add informed (Mlbs_core.Schedule.source schedule);
  let inst = Mlbs_core.Model.phy_instance model in
  (* Reception can depend on the *claimed* informed progression
     (multi-channel tuning, SINR interference sums over the planned
     slot), replayed from the schedule's own steps — the same inputs
     [Radio.replay] uses, re-derived here independently. *)
  let claimed = Bitset.create n in
  Bitset.add claimed (Mlbs_core.Schedule.source schedule);
  let issues = ref [] in
  let issue fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  List.iter2
    (fun (e : Radio.slot_event) (step : Mlbs_core.Schedule.step) ->
      let slot = e.Radio.slot in
      let audible =
        List.filter
          (fun u ->
            Fault.alive faults ~slot u && Bitset.mem informed u && Mlbs_core.Model.awake_in clock u ~slot)
          e.Radio.senders
      in
      let ctx =
        Interference.slot_ctx inst
          ~uninformed:(Bitset.complement claimed)
          ~scheduled:step.Mlbs_core.Schedule.senders
      in
      List.iter
        (fun v ->
          if Bitset.mem informed v then
            issue "slot %d: node %d received while already informed" slot v;
          if not (Fault.alive faults ~slot v) then
            issue "slot %d: dead node %d received" slot v;
          match Interference.reception ctx ~effective:audible ~rx:v with
          | Interference.Delivered u ->
              if not (Fault.delivers ~slot ~tx:u ~rx:v faults) then
                issue "slot %d: reception at %d but link %d->%d was corrupted" slot v u v
          | Interference.Silent ->
              issue "slot %d: reception at %d amid 0 audible transmissions" slot v
          | Interference.Collision several ->
              issue "slot %d: reception at %d amid %d audible transmissions" slot v
                (List.length several))
        e.Radio.received;
      List.iter (Bitset.add informed) e.Radio.received;
      List.iter (Bitset.add claimed) step.Mlbs_core.Schedule.informed)
    outcome.Radio.events
    (Mlbs_core.Schedule.steps schedule);
  (* End-state accounting (alive once every crash window has been
     applied) so delivered/alive is comparable across policies whose
     runs end at different slots. *)
  let delivered = ref 0 and alive = ref 0 in
  for v = 0 to n - 1 do
    if Fault.alive faults ~slot:max_int v then begin
      incr alive;
      if Bitset.mem outcome.Radio.informed v then incr delivered
    end
  done;
  let collisions =
    List.fold_left (fun acc e -> acc + List.length e.Radio.collided) 0 outcome.Radio.events
  in
  let violations = outcome.Radio.violations @ List.rev !issues in
  {
    ok = violations = [];
    delivered = !delivered;
    alive = !alive;
    delivery_ratio =
      (if !alive = 0 then 0. else float_of_int !delivered /. float_of_int !alive);
    latency = Mlbs_core.Schedule.elapsed schedule;
    collisions;
    lost = List.length outcome.Radio.lost;
    violations;
  }

let check_exn model schedule =
  let r = check model schedule in
  if not r.ok then begin
    let parts =
      (if r.collisions > 0 then [ Printf.sprintf "%d collisions" r.collisions ] else [])
      @ (if r.missing <> [] then
           [ Printf.sprintf "%d nodes never informed" (List.length r.missing) ]
         else [])
      @ r.violations
    in
    failwith ("Validate.check_exn: invalid schedule: " ^ String.concat "; " parts)
  end
