(* GLS + VNS anytime improvement over completed broadcast schedules.

   Every move is truncate-and-rebuild around a pivot step [p]: the
   prefix [0..p-1] is kept and held in an [Istate] (rewound in
   O(affected), never recomputed from scratch), the advance at [p] is
   modified (compress / drop / swap / re-colour), and the remaining
   coverage is greedily re-completed through the model's own colouring.
   A candidate is accepted into the working schedule only when it
   strictly lowers the GLS-augmented cost AND passes a full radio
   replay under the instance's interference model; the incumbent (the
   schedule handed back to the caller) moves only on a strict true
   latency improvement. The input schedule value is returned untouched
   when nothing strictly better was found, so byte-level no-change is
   structural, not re-encoded. *)

module Bitset = Mlbs_util.Bitset
module Rng = Mlbs_prng.Rng
module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Istate = Mlbs_core.Istate
module Interference = Mlbs_phy.Interference
module Udg = Mlbs_phy.Udg
module Validate = Mlbs_sim.Validate
module Metrics = Mlbs_obs.Metrics
module Trace = Mlbs_obs.Trace

type outcome = {
  schedule : Schedule.t;
  improved : bool;
  evals : int;
  accepted : int;
  penalty_bumps : int;
  penalty_resets : int;
  escalations : int;
}

let m_runs = Metrics.counter "search/improve/runs"
let m_tried = Metrics.counter "search/improve/moves_tried"
let m_accepted = Metrics.counter "search/improve/moves_accepted"
let m_bumps = Metrics.counter "search/improve/penalty_bumps"
let m_resets = Metrics.counter "search/improve/penalty_resets"
let m_escalations = Metrics.counter "search/improve/escalations"
let m_improved = Metrics.counter "search/improve/improved"
let m_slots_saved = Metrics.counter "search/improve/slots_saved"

(* One slot of true latency outweighs [aug_scale] penalty units in the
   augmented objective, so penalties steer among near-equal schedules
   without silently trading latency away. *)
let aug_scale = 32

(* Class choice during re-completion: coverage dominates, penalties
   break ties and push the rebuild off congested senders. *)
let cov_scale = 64

let kmax = 5
let bump_every = 12
let escalate_every = 40

let no_op schedule =
  {
    schedule;
    improved = false;
    evals = 0;
    accepted = 0;
    penalty_bumps = 0;
    penalty_resets = 0;
    escalations = 0;
  }

let run ~seed ~budget model schedule =
  let n = Model.n_nodes model in
  let source = Schedule.source schedule in
  let start = Schedule.start schedule in
  let rng = Rng.create seed in
  let ist = Istate.create n in
  let pen = Array.make n 0 in
  let cur = ref (Array.of_list (Schedule.steps schedule)) in
  let len0 = Array.length !cur in
  let max_steps = (2 * len0) + 16 in
  let resync steps =
    Istate.reset ist model ~w:(Model.initial_w model ~source);
    Array.iter (fun (st : Schedule.step) -> Istate.apply ist ~senders:st.Schedule.senders) steps
  in
  resync !cur;
  let best = ref schedule in
  let best_elapsed = ref (Schedule.elapsed schedule) in
  let evals = ref 0
  and accepted = ref 0
  and bumps = ref 0
  and resets = ref 0
  and escal = ref 0 in
  let elapsed_of steps = steps.(Array.length steps - 1).Schedule.slot - start + 1 in
  let pen_sum steps =
    Array.fold_left
      (fun acc (st : Schedule.step) ->
        List.fold_left (fun a u -> a + pen.(u)) acc st.Schedule.senders)
      0 steps
  in
  let aug steps = (elapsed_of steps * aug_scale) + pen_sum steps in
  (* Penalty-aware greedy class at [slot], from ist's current position. *)
  let best_class slot =
    List.fold_left
      (fun (bs, bc) (cls, cov) ->
        let sc =
          (Bitset.cardinal cov * cov_scale)
          - List.fold_left (fun a u -> a + pen.(u)) 0 cls
        in
        if sc > bs then (sc, Some cls) else (bs, bc))
      (min_int, None)
      (Istate.greedy_classes_cov ist ~slot)
    |> snd
  in
  (* Greedy re-completion: apply the modified advance ([senders] at
     [slot]; empty = the pivot slot is surrendered to the colouring),
     then advance slot by slot until coverage is complete. *)
  let complete_from ~slot ~senders =
    let acc = ref [] in
    let count = ref 0 in
    let failed = ref false in
    let push ~slot senders =
      Istate.apply ist ~senders;
      let informed = Istate.last_added ist in
      acc := { Schedule.slot; senders; informed } :: !acc;
      incr count
    in
    let cursor = ref (if senders = [] then slot - 1 else slot) in
    if senders <> [] then push ~slot senders;
    while (not !failed) && not (Istate.complete ist) do
      if !count > max_steps then failed := true
      else
        match Istate.next_active_slot ist ~after:!cursor with
        | None -> failed := true
        | Some s -> (
            match best_class s with
            | None -> failed := true
            | Some cls ->
                push ~slot:s cls;
                cursor := s)
    done;
    if !failed then None else Some (List.rev !acc)
  in
  let restore p =
    Istate.rewind ist ~depth:p;
    for i = p to Array.length !cur - 1 do
      Istate.apply ist ~senders:(!cur).(i).Schedule.senders
    done
  in
  (* One neighborhood move at VNS strength [k]: pick a pivot in a
     window that widens with [k], modify the advance there, rebuild. *)
  let try_move ~k =
    let len = Array.length !cur in
    let window = min len (2 + (3 * k)) in
    let p = len - 1 - Rng.int rng window in
    let step_p = (!cur).(p) in
    let slot = step_p.Schedule.slot in
    Istate.rewind ist ~depth:p;
    let senders_opt =
      match Rng.int rng 4 with
      | 0 ->
          (* compress: pull step p+1's feasible senders into slot p *)
          if p + 1 >= len then None
          else
            let w = Istate.w ist in
            let extra =
              List.filter
                (fun v ->
                  Bitset.mem w v
                  && Model.awake model v ~slot
                  && not (List.mem v step_p.Schedule.senders))
                (!cur).(p + 1).Schedule.senders
            in
            if extra = [] then None else Some (step_p.Schedule.senders @ extra)
      | 1 -> (
          (* drop one sender, freeing its conflict edges *)
          match step_p.Schedule.senders with
          | [] | [ _ ] -> None
          | senders ->
              let i = Rng.int rng (List.length senders) in
              Some (List.filteri (fun j _ -> j <> i) senders))
      | 2 -> (
          (* swap one sender for a different candidate of the slot *)
          match step_p.Schedule.senders with
          | [] -> None
          | senders -> (
              match
                List.filter
                  (fun v -> not (List.mem v senders))
                  (Istate.candidates ist ~slot)
              with
              | [] -> None
              | fresh ->
                  let v = Rng.pick rng fresh in
                  let i = Rng.int rng (List.length senders) in
                  Some (List.mapi (fun j u -> if j = i then v else u) senders)))
      | _ ->
          (* re-colour: let the penalty-aware greedy redo the advance *)
          Some []
    in
    match senders_opt with
    | None ->
        restore p;
        `Rejected
    | Some senders -> (
        match complete_from ~slot ~senders with
        | None ->
            restore p;
            `Rejected
        | Some suffix ->
            let cand = Array.append (Array.sub !cur 0 p) (Array.of_list suffix) in
            if Array.length cand = 0 || aug cand >= aug !cur then begin
              restore p;
              `Rejected
            end
            else
              let sched = Schedule.make ~n_nodes:n ~source ~start (Array.to_list cand) in
              let rep = Validate.check model sched in
              if not rep.Validate.ok then begin
                restore p;
                `Rejected
              end
              else begin
                (* ist is already at cand's end position *)
                cur := cand;
                incr accepted;
                Metrics.incr m_accepted;
                let e = Schedule.elapsed sched in
                if e < !best_elapsed then begin
                  best := sched;
                  best_elapsed := e;
                  `Best
                end
                else `Accepted
              end)
  in
  (* GLS feature penalties: a sender's utility is its count of conflict
     edges into the immediately following step (the edges that forced
     that coverage to wait), discounted by its standing penalty. Pairs
     are tested against the live W̄; UDG and mc:k ask [Udg] directly, so
     their probes stay out of [phy/conflict_checks] as in [Choices]. *)
  let conflicts =
    match Model.phy_instance model with
    | Interference.I_udg g | Interference.I_mc { graph = g; _ } -> Udg.conflicts g
    | Interference.I_sinr _ as inst -> Interference.conflicts inst
  in
  let bump_penalties () =
    Istate.rewind ist ~depth:0;
    let len = Array.length !cur in
    let best_util = ref neg_infinity and best_us = ref [] in
    for i = 0 to len - 1 do
      let uninformed = Istate.ubar ist in
      if i + 1 < len then
        List.iter
          (fun u ->
            let cong =
              List.fold_left
                (fun a v -> if u <> v && conflicts ~uninformed u v then a + 1 else a)
                0
                (!cur).(i + 1).Schedule.senders
            in
            let util = float_of_int (cong + 1) /. float_of_int (1 + pen.(u)) in
            if util > !best_util +. 1e-9 then begin
              best_util := util;
              best_us := [ u ]
            end
            else if util > !best_util -. 1e-9 then best_us := u :: !best_us)
          (!cur).(i).Schedule.senders;
      Istate.apply ist ~senders:(!cur).(i).Schedule.senders
    done;
    List.iter (fun u -> pen.(u) <- pen.(u) + 1) !best_us;
    incr bumps;
    Metrics.incr m_bumps
  in
  let k = ref 1 in
  let since_accept = ref 0 and since_best = ref 0 in
  while !evals < budget do
    incr evals;
    Metrics.incr m_tried;
    (match try_move ~k:!k with
    | `Best ->
        since_accept := 0;
        since_best := 0;
        k := 1
    | `Accepted ->
        since_accept := 0;
        incr since_best
    | `Rejected ->
        incr since_accept;
        incr since_best);
    if !since_accept >= bump_every then begin
      bump_penalties ();
      since_accept := 0
    end;
    if !since_best >= escalate_every then begin
      since_best := 0;
      if !k < kmax then begin
        incr k;
        incr escal;
        Metrics.incr m_escalations
      end
      else begin
        (* a full escalation cycle came up dry: restart from the
           incumbent over a clean penalty landscape *)
        k := 1;
        Array.fill pen 0 n 0;
        incr resets;
        Metrics.incr m_resets;
        cur := Array.of_list (Schedule.steps !best);
        resync !cur
      end
    end
  done;
  let improved = !best_elapsed < Schedule.elapsed schedule in
  if improved then begin
    Metrics.incr m_improved;
    Metrics.add m_slots_saved (Schedule.elapsed schedule - !best_elapsed)
  end;
  {
    schedule = !best;
    improved;
    evals = !evals;
    accepted = !accepted;
    penalty_bumps = !bumps;
    penalty_resets = !resets;
    escalations = !escal;
  }

let improve ?(seed = 0) ~budget model schedule =
  if Schedule.n_nodes schedule <> Model.n_nodes model then
    invalid_arg "Improve.improve: schedule/model node count mismatch";
  if budget <= 0 || List.length (Schedule.steps schedule) <= 1 then no_op schedule
  else begin
    Metrics.incr m_runs;
    Trace.with_span ~cat:"search" "improve" (fun () ->
        run ~seed ~budget model schedule)
  end
