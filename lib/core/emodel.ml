module Bitset = Mlbs_util.Bitset
module Heap = Mlbs_util.Heap
module Quadrant = Mlbs_geom.Quadrant
module Network = Mlbs_wsn.Network
module Boundary = Mlbs_wsn.Boundary
module Wake_schedule = Mlbs_dutycycle.Wake_schedule

type t = { values : int array array (* node -> quadrant index -> E *) }

let infinity_ = max_int

(* Proactive CWT estimate for Eq. (11): the mean wait from [v]'s wake-ups
   (first [frames] frames) until [u]'s next wake — computable by [v] from
   [u]'s seed and last active slot. At least 1, like any real wait. *)
let edge_weight model ~cwt_frames v u =
  match Model.system model with
  | Model.Sync -> 1
  | Model.Async sched ->
      let r = Wake_schedule.rate sched in
      let horizon = cwt_frames * r in
      let wakes = Wake_schedule.wakes_in sched v ~from_:1 ~until:horizon in
      let wakes = if wakes = [] then [ Wake_schedule.next_wake sched v ~after:0 ] else wakes in
      let total =
        List.fold_left
          (fun acc wv -> acc + (Wake_schedule.next_wake sched u ~after:wv - wv))
          0 wakes
      in
      max 1 (total / List.length wakes)

(* Multi-source Dijkstra on the quadrant-i relation: settled node [u]
   relaxes each neighbour [v] having [u ∈ Q_i(v)] — equivalently
   [v ∈ Q_opp(i)(u)] — with [E_i(v) = w(v,u) + E_i(u)]. [updatable]
   restricts which nodes may change (phase B must not touch phase-A
   results). *)
let relax model ~cwt_frames ~qi values updatable =
  let net = Model.network model in
  let opp = Quadrant.opposite qi in
  let cmp (d1, _) (d2, _) = compare d1 d2 in
  let heap = Heap.create ~cmp in
  Array.iteri (fun u d -> if d <> infinity_ then Heap.push heap (d, u)) values;
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
        if d = values.(u) then
          Array.iter
            (fun v ->
              if updatable.(v) then begin
                let cand = edge_weight model ~cwt_frames v u + d in
                if cand < values.(v) then begin
                  values.(v) <- cand;
                  Heap.push heap (cand, v)
                end
              end)
            (Network.neighbors_in_quadrant net u opp);
        drain ()
  in
  drain ()

type seeding = Two_phase | Merged

let compute ?(cwt_frames = 4) ?(seeding = Two_phase) model =
  let net = Model.network model in
  let n = Model.n_nodes model in
  let boundary = Array.make n false in
  List.iter (fun u -> boundary.(u) <- true) (Boundary.outer_boundary net);
  let values =
    Array.init n (fun _ -> Array.make 4 infinity_)
  in
  List.iter
    (fun qi ->
      let k = Quadrant.to_index qi in
      let vq = Array.init n (fun u -> values.(u).(k)) in
      let empty_quadrant u = Array.length (Network.neighbors_in_quadrant net u qi) = 0 in
      (* Phase A: seed boundary nodes with an empty quadrant (step 2) —
         or, under [Merged], every empty-quadrant node at once. *)
      for u = 0 to n - 1 do
        if (seeding = Merged || boundary.(u)) && empty_quadrant u then vq.(u) <- 0
      done;
      let all = Array.make n true in
      relax model ~cwt_frames ~qi vq all;
      (* Phase B: re-seed interior local minima (step 5), then update the
         remaining ∞ values — and only those (step 6). A no-op under
         [Merged], where those nodes were seeded up front. *)
      let updatable = Array.map (fun d -> d = infinity_) vq in
      for u = 0 to n - 1 do
        if vq.(u) = infinity_ && empty_quadrant u then vq.(u) <- 0
      done;
      relax model ~cwt_frames ~qi vq updatable;
      Array.iteri
        (fun u d ->
          if d = infinity_ then
            failwith
              (Printf.sprintf "Emodel.compute: node %d unreachable from the %s edge" u
                 (Quadrant.to_string qi));
          values.(u).(k) <- d)
        vq)
    Quadrant.all;
  { values }

let value t ~node q = t.values.(node).(Quadrant.to_index q)

let max_applicable t model ~w ~node =
  let net = Model.network model in
  List.fold_left
    (fun acc q ->
      let has_uninformed =
        Array.exists
          (fun v -> not (Bitset.mem w v))
          (Network.neighbors_in_quadrant net node q)
      in
      if has_uninformed then
        let e = value t ~node q in
        match acc with Some best when best >= e -> acc | _ -> Some e
      else acc)
    None Quadrant.all

(* The index of the class holding the highest-scoring node; ties
   prefer the earlier (greedier) class. *)
let argmax_class node_score classes =
  let score cls = List.fold_left (fun acc u -> max acc (node_score u)) (-1) cls in
  match classes with
  | [] -> invalid_arg "Emodel.argmax_class: no classes"
  | first :: rest ->
      let _, best, _ =
        List.fold_left
          (fun (i, best, best_score) cls ->
            let s = score cls in
            if s > best_score then (i + 1, i, s) else (i + 1, best, best_score))
          (1, 0, score first) rest
      in
      best

let select t model ~w ~classes =
  if classes = [] then invalid_arg "Emodel.select: no classes";
  argmax_class
    (fun u -> Option.value (max_applicable t model ~w ~node:u) ~default:(-1))
    classes

let pipeline ~classes_of ~select model ~source ~start =
  let rec loop w slot steps =
    if Model.complete model ~w then List.rev steps
    else
      match Model.next_active_slot model ~w ~after:(slot - 1) with
      | None -> failwith "Emodel.pipeline: empty frontier before completion"
      | Some t -> (
          match classes_of ~w ~slot:t with
          | [] -> failwith "Emodel.pipeline: active slot without candidates"
          | classes ->
              let senders = List.nth classes (select ~w ~classes) in
              let w' = Model.apply model ~w ~senders in
              let informed = Bitset.elements (Bitset.diff w' w) in
              loop w' (t + 1) ({ Schedule.slot = t; senders; informed } :: steps))
  in
  let steps = loop (Model.initial_w model ~source) start [] in
  Schedule.make ~n_nodes:(Model.n_nodes model) ~source ~start steps

let plan ?tuples model ~source ~start =
  let tuples = match tuples with Some t -> t | None -> compute model in
  pipeline ~classes_of:(Model.greedy_classes model) ~select:(select tuples model) model ~source
    ~start
