module Quadrant = Mlbs_geom.Quadrant
module Model = Mlbs_core.Model
module Emodel = Mlbs_core.Emodel
module Fault = Mlbs_sim.Fault
module Metrics = Mlbs_obs.Metrics

let m_rounds = Metrics.counter "eproto/rounds"
let m_messages = Metrics.counter "eproto/messages"
let m_retx = Metrics.counter "eproto/retransmissions"

type result = {
  values : int array array;
  rounds : int;
  messages : int;
  retransmissions : int;
}

let infinity_ = max_int

(* How many rounds an announcer keeps retrying undelivered copies of one
   tuple before giving those neighbours up. *)
let retry_cap = 16

let construct ?(faults = Fault.none) model views =
  Mlbs_obs.Trace.with_span ~cat:"proto" "e-construct" @@ fun () ->
  let n = Array.length views in
  if n <> Model.n_nodes model then invalid_arg "E_protocol.construct: view count mismatch";
  (* Each node's quadrant partition of its neighbours, from its own
     view (positions learned by beaconing). *)
  let quadrant_nbrs =
    Array.map
      (fun (v : Hello.view) ->
        let buckets = Array.make 4 [] in
        List.iter
          (fun (u, pos) ->
            match Quadrant.classify ~origin:v.Hello.position pos with
            | Some q ->
                let k = Quadrant.to_index q in
                buckets.(k) <- u :: buckets.(k)
            | None -> ())
          v.Hello.neighbor_position;
        buckets)
      views
  in
  let weight = Emodel.edge_weights model in
  (* Local state: own tuple, plus the last tuple received from each
     neighbour (node-indexed table of per-neighbour copies). *)
  let e =
    Array.init n (fun u ->
        Array.init 4 (fun k -> if quadrant_nbrs.(u).(k) = [] then 0 else infinity_))
  in
  let known : (int, int array) Hashtbl.t array = Array.init n (fun _ -> Hashtbl.create 8) in
  let relax u =
    let changed = ref false in
    for k = 0 to 3 do
      match quadrant_nbrs.(u).(k) with
      | [] -> () (* stays seeded at 0 *)
      | nbrs ->
          let best =
            List.fold_left
              (fun acc v ->
                match Hashtbl.find_opt known.(u) v with
                | Some tup when tup.(k) <> infinity_ -> min acc (weight u v + tup.(k))
                | _ -> acc)
              infinity_ nbrs
          in
          if best < e.(u).(k) then begin
            e.(u).(k) <- best;
            changed := true
          end
    done;
    !changed
  in
  let fault_active = not (Fault.is_noop faults) in
  let all_nbrs u = Array.to_list views.(u).Hello.neighbors in
  let messages = ref 0 and rounds = ref 0 and retransmissions = ref 0 in
  (* Pending copies are the implicit ACK state: an announcer re-sends
     its tuple each round to the neighbours that have not yet received
     it (under loss), up to [retry_cap] rounds per tuple. Fault-free,
     every copy lands first try, so rounds/messages match the original
     single-shot protocol exactly. Each entry is
     (announcer, neighbours still owed the tuple, rounds tried). *)
  let to_announce = ref [] in
  for u = n - 1 downto 0 do
    if Array.exists (fun x -> x <> infinity_) e.(u) then
      to_announce := (u, all_nbrs u, 0) :: !to_announce
  done;
  while !to_announce <> [] do
    incr rounds;
    (* Deliver announcements; track the copies the channel corrupted. *)
    let unresolved = ref [] in
    List.iter
      (fun (u, pending, tries) ->
        incr messages;
        if tries > 0 then incr retransmissions;
        let missed =
          List.filter
            (fun v ->
              if
                (not fault_active)
                || Fault.delivers ~channel:2 ~slot:!rounds ~tx:u ~rx:v faults
              then begin
                Hashtbl.replace known.(v) u (Array.copy e.(u));
                false
              end
              else true)
            pending
        in
        if missed <> [] && tries + 1 < retry_cap then
          unresolved := (u, missed, tries + 1) :: !unresolved)
      !to_announce;
    (* Everyone re-relaxes; improvements are announced next round. An
       improved announcer's fresh tuple supersedes its unresolved
       retries (the new copy goes to every neighbour anyway). *)
    let improved = ref [] in
    for u = n - 1 downto 0 do
      if relax u then improved := u :: !improved
    done;
    let keep =
      List.filter (fun (u, _, _) -> not (List.mem u !improved)) (List.rev !unresolved)
    in
    to_announce := keep @ List.map (fun u -> (u, all_nbrs u, 0)) !improved
  done;
  (* The quadrant relations are DAGs with all sinks seeded, so every
     value is finite at quiescence — unless loss exhausted a tuple's
     retries, in which case the node degrades to a conservative score
     of 0 instead of aborting the deployment. *)
  Array.iteri
    (fun u tup ->
      Array.iteri
        (fun k x ->
          if x = infinity_ then
            if fault_active then tup.(k) <- 0
            else
              failwith
                (Printf.sprintf "E_protocol.construct: node %d quadrant %d never settled" u
                   k))
        tup)
    e;
  Metrics.add m_rounds !rounds;
  Metrics.add m_messages !messages;
  Metrics.add m_retx !retransmissions;
  { values = e; rounds = !rounds; messages = !messages; retransmissions = !retransmissions }
