module Bitset = Mlbs_util.Bitset
module Quadrant = Mlbs_geom.Quadrant
module Model = Mlbs_core.Model
module Emodel = Mlbs_core.Emodel
module Schedule = Mlbs_core.Schedule
module Interference = Mlbs_phy.Interference
module Fault = Mlbs_sim.Fault
module Metrics = Mlbs_obs.Metrics
module Otrace = Mlbs_obs.Trace

(* Protocol observability (all behind the disabled-registry branch).
   The waiting split mirrors the paper's cost decomposition: after a
   transmission a sender is silent for its conflict-avoidance backoff
   (k slots) plus however long the duty cycle then keeps it asleep —
   the contention-waiting time (CWT) — and the two accumulate into
   separate counters. *)
let m_slots = Metrics.counter "proto/slots"
let m_sends = Metrics.counter "proto/sends"
let m_collisions = Metrics.counter "proto/collisions"
let m_lost = Metrics.counter "proto/lost_packets"
let m_beacons = Metrics.counter "proto/beacon_messages"
let m_retx = Metrics.counter "proto/retransmissions"
let m_wait_conflict = Metrics.counter "proto/wait_conflict_slots"
let m_wait_cwt = Metrics.counter "proto/wait_cwt_slots"

type stats = {
  schedule : Schedule.t;
  latency : int;
  collisions : int;
  retransmissions : int;
  beacon_messages : int;
  e_messages : int;
  delivered : int;
  gave_up : int;
  lost_packets : int;
}

(* What one node believes about another: message-holding is monotone
   (once believed true, never revoked); request counts and scores carry
   the latest value heard, first-hand beacons overriding digests.

   Beliefs live in flat arrays indexed by the node's local universe
   (known ++ [self], self at the last index) rather than a hashtable:
   every id a beacon can mention is within two hops of the receiver, so
   the universe index is total and belief access is a plain array read.

   The per-slot beacon payload — the digest of 1-hop beliefs plus the
   node's own request count and Eq. (10) score — is cached in
   [dig_*]/[pay_*] and rebuilt only when a belief about a 1-hop
   neighbour changed since the last slot ([pay_dirty]); a settled
   region of the network stops paying for its beacons' contents. *)
type nstate = {
  view : Hello.view;
  known : int array;  (** the node's 2-hop universe (excluding itself), sorted *)
  local_index : (int, int) Hashtbl.t;  (** id -> index into the local universe *)
  adj : Bitset.t array;
      (** per universe index, the certifiable-adjacency mask (universe
          = known ++ [self], self at the last index) *)
  cls : Interference.classifier;  (** Algorithm 1's class builder over [adj] *)
  b_holds : bool array;  (** belief: universe index holds the message *)
  b_requests : int array;  (** belief: its uninformed-neighbour count *)
  b_score : int array;  (** belief: its Eq. (10) score *)
  is_nbr : bool array;  (** universe index is a 1-hop neighbour *)
  nbr_li : int array;  (** per 1-hop neighbour position, its universe index *)
  edge_tgt : int array array;
      (** per 1-hop neighbour position [j]: digest slot [k] -> index of
          this node's [k]-th neighbour in neighbour [j]'s universe, or
          [-1] when that slot names neighbour [j] itself *)
  edge_self : int array;
      (** per 1-hop neighbour position [j]: this node's index in
          neighbour [j]'s universe *)
  q_idx : int array;  (** per positioned neighbour, its universe index *)
  q_e : int array;
      (** per positioned neighbour, the E value of its quadrant ([-1]
          when the neighbour sits on a quadrant boundary) *)
  dig_h : bool array;  (** payload snapshot of 1-hop [b_holds] *)
  dig_r : int array;  (** payload snapshot of 1-hop [b_requests] *)
  dig_s : int array;  (** payload snapshot of 1-hop [b_score] *)
  mutable pay_req : int;  (** payload snapshot of [own_req] *)
  mutable pay_e : int;  (** payload snapshot of the own score *)
  mutable pay_dirty : bool;
  mutable own_req : int;
      (** live count of 1-hop neighbours believed uninformed, maintained
          on every holds flip *)
  mutable own_e : int;  (** cached own score, valid unless [own_e_dirty] *)
  mutable own_e_dirty : bool;
  uninformed : Bitset.t;  (** scratch for [decide], over the universe *)
  mutable has_msg : bool;
  mutable attempts : int;
  mutable silent_until : int;
}

(* Belief writers: flips of a 1-hop neighbour's state invalidate the
   cached payload (and, for holds, the maintained request count and
   score); writes about 2-hop nodes touch nothing cached. *)
let set_holds st i h =
  if st.b_holds.(i) <> h then begin
    st.b_holds.(i) <- h;
    if st.is_nbr.(i) then begin
      st.pay_dirty <- true;
      st.own_e_dirty <- true;
      st.own_req <- (st.own_req + if h then -1 else 1)
    end
  end

let set_requests st i r =
  if st.b_requests.(i) <> r then begin
    st.b_requests.(i) <- r;
    if st.is_nbr.(i) then st.pay_dirty <- true
  end

let set_score st i s =
  if st.b_score.(i) <> s then begin
    st.b_score.(i) <- s;
    if st.is_nbr.(i) then st.pay_dirty <- true
  end

let max_applicable_e st =
  (* The largest E_k over quadrants still containing a believed-
     uninformed neighbour — the node's own Eq. (10) score. *)
  if st.own_e_dirty then begin
    let best = ref (-1) in
    Array.iteri
      (fun k i -> if not st.b_holds.(i) then best := max !best st.q_e.(k))
      st.q_idx;
    st.own_e <- !best;
    st.own_e_dirty <- false
  end;
  st.own_e

let refresh_payload st =
  if st.pay_dirty then begin
    Array.iteri
      (fun j i ->
        st.dig_h.(j) <- st.b_holds.(i);
        st.dig_r.(j) <- st.b_requests.(i);
        st.dig_s.(j) <- st.b_score.(i))
      st.nbr_li;
    st.pay_req <- st.own_req;
    st.pay_e <- max_applicable_e st;
    st.pay_dirty <- false
  end

let run ?max_slots ?(faults = Fault.none) ?max_attempts model ~source ~start =
  Otrace.with_span ~arg:start ~cat:"proto" "broadcast" @@ fun () ->
  let n = Model.n_nodes model in
  let fault_active = not (Fault.is_noop faults) in
  (* Unbounded retries are safe fault-free (convergence is guaranteed);
     under faults a partition would retry forever, so attempts default
     to a bound and exhausting it is the per-node give-up. *)
  let max_attempts =
    match max_attempts with Some m -> m | None -> if fault_active then 8 else max_int
  in
  let max_slots = Online.max_slots model max_slots in
  let { Hello.views; messages = hello_messages } = Hello.discover (Model.network model) in
  let e_result = E_protocol.construct ~faults model views in
  let states =
    Array.init n (fun u ->
        let view = views.(u) in
        let known = Array.of_list (Hello.two_hop view) in
        let size = Array.length known + 1 in
        let deg = Array.length view.Hello.neighbors in
        let local_index = Hashtbl.create (2 * size) in
        Array.iteri (fun i x -> Hashtbl.add local_index x i) known;
        Hashtbl.add local_index u (size - 1);
        (* Certifiable edges: (u, nbr) from the view itself, and
           (nbr, x) from each neighbour's reported list. *)
        let adj = Array.init size (fun _ -> Bitset.create size) in
        let add_edge a b =
          match (Hashtbl.find_opt local_index a, Hashtbl.find_opt local_index b) with
          | Some ia, Some ib ->
              Bitset.add adj.(ia) ib;
              Bitset.add adj.(ib) ia
          | _ -> ()
        in
        Array.iter (fun nbr -> add_edge u nbr) view.Hello.neighbors;
        List.iter
          (fun (nbr, l) -> Array.iter (fun x -> if x <> u then add_edge nbr x) l)
          view.Hello.neighbor_lists;
        let e = e_result.E_protocol.values.(u) in
        let nbr_li = Array.map (Hashtbl.find local_index) view.Hello.neighbors in
        let is_nbr = Array.make size false in
        Array.iter (fun i -> is_nbr.(i) <- true) nbr_li;
        let npos = Array.of_list view.Hello.neighbor_position in
        {
          view;
          known;
          local_index;
          adj;
          cls = Interference.row_classifier adj;
          b_holds = Array.make size false;
          b_requests = Array.make size 0;
          b_score = Array.make size 0;
          is_nbr;
          nbr_li;
          edge_tgt = Array.make deg [||];
          edge_self = Array.make deg (-1);
          q_idx = Array.map (fun (w, _) -> Hashtbl.find local_index w) npos;
          q_e =
            Array.map
              (fun (_, pos) ->
                match Quadrant.classify ~origin:view.Hello.position pos with
                | Some q -> e.(Quadrant.to_index q)
                | None -> -1)
              npos;
          dig_h = Array.make deg false;
          dig_r = Array.make deg 0;
          dig_s = Array.make deg 0;
          pay_req = 0;
          pay_e = -1;
          pay_dirty = true;
          own_req = deg;
          own_e = -1;
          own_e_dirty = true;
          uninformed = Bitset.create size;
          has_msg = u = source;
          attempts = 0;
          silent_until = 0;
        })
  in
  (* Resolve each directed edge once: where every digest slot of u's
     beacon lands in the receiver's universe, and where u itself lands.
     The per-slot integration below is then pure array traffic. *)
  Array.iteri
    (fun u st ->
      Array.iteri
        (fun j v ->
          let dst = states.(v) in
          st.edge_tgt.(j) <-
            Array.map
              (fun w -> if w = v then -1 else Hashtbl.find dst.local_index w)
              st.view.Hello.neighbors;
          st.edge_self.(j) <- Hashtbl.find dst.local_index u)
        st.view.Hello.neighbors)
    states;
  (* Forecasts of neighbours' wake slots come from the published (base)
     schedule; a node's own radio follows its own clock. *)
  let self_system = Fault.own_clock faults model in
  let stalled = Array.make n 0 in
  let beacon_messages = ref hello_messages in
  let collisions = ref 0 in
  let lost_packets = ref 0 in
  let steps = ref [] in
  (* Ground truth, used by the radio and the stop condition only. *)
  let truly_informed = Bitset.create n in
  Bitset.add truly_informed source;

  let beacon_phase ~slot =
    (* Each node broadcasts (holds, requests, score) for itself plus a
       digest of its 1-hop beliefs; neighbours integrate. The payload
       caches are refreshed for every node before any integration runs,
       so payloads carry the slot-start beliefs; digests are applied
       first so first-hand data wins within the slot. *)
    Array.iter refresh_payload states;
    Array.iteri
      (fun u st ->
        if (not fault_active) || Fault.alive faults ~slot u then begin
          incr beacon_messages;
          Array.iteri
            (fun j v ->
              if
                (not fault_active)
                || (Fault.alive faults ~slot v
                   && Fault.delivers ~channel:1 ~slot ~tx:u ~rx:v faults)
              then begin
                let dst = states.(v) in
                let tgt = st.edge_tgt.(j) in
                for k = 0 to Array.length tgt - 1 do
                  let i = tgt.(k) in
                  (* Second-hand claims only fill in 2-hop nodes: a direct
                     neighbour's own beacon is authoritative and arrives
                     here first-hand — under faults its holdership can
                     even regress (crash + recovery loses the message). *)
                  if i >= 0 && not dst.is_nbr.(i) then begin
                    if st.dig_h.(k) then set_holds dst i true;
                    set_requests dst i st.dig_r.(k);
                    set_score dst i st.dig_s.(k)
                  end
                done;
                let i = st.edge_self.(j) in
                set_holds dst i st.has_msg;
                set_requests dst i st.pay_req;
                set_score dst i st.pay_e
              end)
            st.view.Hello.neighbors
        end)
      states
  in

  let eligible u ~slot =
    let st = states.(u) in
    st.has_msg
    && Fault.alive faults ~slot u
    && Model.awake_in self_system u ~slot
    && st.silent_until <= slot
    && st.own_req > 0
    && st.attempts < max_attempts
  in
  let decide u ~slot =
    let st = states.(u) in
    if not (eligible u ~slot) then false
    else if stalled.(u) >= Online.stall_limit then true
    else begin
      (* Algorithm 1 on the 2-hop belief view: itself plus believed
         holders with requests, awake by forecast, as universe indices
         in request count descending, then id, against the believed
         uninformed set. Send iff Eq. (10)'s class holds this node. *)
      let self = Array.length st.known in
      let cands = ref [ self ] in
      Bitset.clear st.uninformed;
      for i = self - 1 downto 0 do
        if not st.b_holds.(i) then Bitset.add st.uninformed i
        else if st.b_requests.(i) > 0 && Model.awake model st.known.(i) ~slot then
          cands := i :: !cands
      done;
      let count i = if i = self then st.own_req else st.b_requests.(i) in
      let id i = if i = self then u else st.known.(i) in
      let order a b =
        let ca = count a and cb = count b in
        if ca <> cb then compare cb ca else compare (id a) (id b)
      in
      let classes =
        Interference.classes st.cls ~uninformed:st.uninformed (List.sort order !cands)
      in
      let score i = if i = self then max_applicable_e st else st.b_score.(i) in
      List.mem self (List.nth classes (Emodel.argmax_class score classes))
    end
  in

  (* A recovering node rejoins with amnesia: no message (unless it is
     the source, which re-originates), no beliefs, a fresh retry
     budget. Its neighbours re-learn its true state from its first
     authoritative beacon and the unresolved requests pull the relays
     back into the greedy re-coloring. *)
  let recoveries =
    List.filter_map
      (fun (c : Fault.crash) ->
        match c.Fault.recover with Some r -> Some (r, c.Fault.node) | None -> None)
      (Fault.spec faults).Fault.crashes
  in
  let last_recovery = List.fold_left (fun acc (r, _) -> max acc r) (start - 1) recoveries in
  let revive node =
    let st = states.(node) in
    Array.fill st.b_holds 0 (Array.length st.b_holds) false;
    Array.fill st.b_requests 0 (Array.length st.b_requests) 0;
    Array.fill st.b_score 0 (Array.length st.b_score) 0;
    st.own_req <- Array.length st.view.Hello.neighbors;
    st.own_e_dirty <- true;
    st.pay_dirty <- true;
    st.has_msg <- node = source;
    st.attempts <- 0;
    st.silent_until <- 0;
    stalled.(node) <- 0;
    if node <> source then Bitset.remove truly_informed node
  in
  let all_alive_informed slot =
    List.for_all
      (fun u -> Bitset.mem truly_informed u || not (Fault.alive faults ~slot u))
      (List.init n Fun.id)
  in
  let progress_possible slot =
    Array.exists
      (fun st ->
        Fault.alive faults ~slot st.view.Hello.id
        && st.has_msg
        && st.attempts < max_attempts
        && st.own_req > 0)
      states
  in
  (* One slot's work, factored out of the recursion so the per-slot
     span covers exactly this body and slots appear as sibling spans
     in the trace; both the silent and the sending path fall through
     to the caller's [loop (slot + 1)]. *)
  let slot_body slot =
      Metrics.incr m_slots;
      List.iter (fun (r, node) -> if r = slot then revive node) recoveries;
      beacon_phase ~slot;
      let senders = List.filter (fun u -> decide u ~slot) (List.init n Fun.id) in
      if Mlbs_obs.Obs.metrics_enabled () then Metrics.add m_sends (List.length senders);
      Online.note_stalls (Model.graph model) stalled ~senders ~eligible:(eligible ~slot);
      if senders <> [] then begin
        let received = ref [] in
        Online.air model ~informed:truly_informed ~senders
          ~hears:(fun v -> Fault.alive faults ~slot v)
          (fun v -> function
            | Interference.Silent -> ()
            | Interference.Delivered tx ->
                (* Decodable transmission: the per-link roll decides
                   whether the payload survives. A corrupted copy
                   delivers nothing — the unresolved request shows up
                   in the next beacons and triggers a retransmission. *)
                if Fault.delivers ~slot ~tx ~rx:v faults then begin
                  received := v :: !received;
                  let dst = states.(v) in
                  dst.has_msg <- true;
                  set_holds dst (Hashtbl.find dst.local_index tx) true
                end
                else begin
                  incr lost_packets;
                  Metrics.incr m_lost
                end
            | Interference.Collision _ ->
                incr collisions;
                Metrics.incr m_collisions);
        List.iter
          (fun u ->
            let st = states.(u) in
            st.attempts <- st.attempts + 1;
            (* Transmit-then-listen: back off and let the next beacons
               say whether requests remain. The silence decomposes into
               the backoff itself ([k] slots of conflict avoidance) and
               the extra slots the duty cycle keeps the node asleep
               beyond it — the CWT share. *)
            let k = Online.backoff u st.attempts + 1 in
            let until = Online.nth_wake self_system u slot k in
            Metrics.add m_wait_conflict k;
            Metrics.add m_wait_cwt (until - slot - k);
            st.silent_until <- until)
          senders;
        List.iter (Bitset.add truly_informed) !received;
        steps :=
          { Schedule.slot; senders; informed = List.sort compare !received } :: !steps
      end
  in
  let rec loop slot =
    if slot > last_recovery && all_alive_informed slot then slot - 1
    else if slot - start >= max_slots then
      if fault_active then slot - 1
      else
        failwith
          (Printf.sprintf "Broadcast_protocol.run: no coverage within %d slots" max_slots)
    else if fault_active && slot > last_recovery && not (progress_possible slot) then
      (* Give-up: every remaining request is unservable — the holders
         that could satisfy it are dead, partitioned away, or out of
         retries — and no recovery is pending that could change that. *)
      slot - 1
    else begin
      Otrace.with_span ~arg:slot ~cat:"proto" "slot" (fun () -> slot_body slot);
      loop (slot + 1)
    end
  in
  let finish = loop start in
  let schedule = Schedule.make ~n_nodes:n ~source ~start (List.rev !steps) in
  let retransmissions =
    Array.fold_left (fun acc st -> acc + max 0 (st.attempts - 1)) 0 states
  in
  Metrics.add m_retx retransmissions;
  Metrics.add m_beacons !beacon_messages;
  (* End-state accounting: a node is counted iff it survives every
     crash window of the plan, so delivery ratios computed against the
     plan's own end-state alive count never exceed 1. *)
  let delivered = ref 0 and gave_up = ref 0 in
  Array.iter
    (fun st ->
      let u = st.view.Hello.id in
      if Fault.alive faults ~slot:max_int u then begin
        if Bitset.mem truly_informed u then incr delivered;
        if st.attempts >= max_attempts && st.own_req > 0 then incr gave_up
      end)
    states;
  {
    schedule;
    latency = finish - start + 1;
    collisions = !collisions;
    retransmissions;
    beacon_messages = !beacon_messages;
    e_messages = e_result.E_protocol.messages;
    delivered = !delivered;
    gave_up = !gave_up;
    lost_packets = !lost_packets;
  }
