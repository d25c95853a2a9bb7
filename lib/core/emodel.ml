module Bitset = Mlbs_util.Bitset
module Heap = Mlbs_util.Heap
module Quadrant = Mlbs_geom.Quadrant
module Network = Mlbs_wsn.Network
module Boundary = Mlbs_wsn.Boundary
module Wake_schedule = Mlbs_dutycycle.Wake_schedule

type t = { values : int array array (* node -> quadrant index -> E *) }

let infinity_ = max_int

(* Proactive CWT estimate for Eq. (11): the mean wait from [v]'s wake-ups
   (first [cwt_frames] frames) until [u]'s next wake — computable by [v]
   from [u]'s seed and last active slot. At least 1, like any real
   wait. *)
let cwt_frames = 4

(* Each node's wake list is built once per call, not once per
   relaxation. *)
let edge_weights model =
  match Model.system model with
  | Model.Sync -> fun _ _ -> 1
  | Model.Async sched ->
      let horizon = cwt_frames * Wake_schedule.rate sched in
      let mean_wait v =
        let wakes =
          match Wake_schedule.wakes_in sched v ~from_:1 ~until:horizon with
          | [] -> [ Wake_schedule.next_wake sched v ~after:0 ]
          | wakes -> wakes
        in
        let k = List.length wakes in
        fun u ->
          let total =
            List.fold_left
              (fun acc wv -> acc + (Wake_schedule.next_wake sched u ~after:wv - wv))
              0 wakes
          in
          max 1 (total / k)
      in
      let waits = Array.init (Model.n_nodes model) mean_wait in
      fun v u -> waits.(v) u

(* Multi-source shortest paths on the quadrant-i relation: settled
   node [u] relaxes each neighbour [v] having [u ∈ Q_i(v)] —
   equivalently [v ∈ Q_opp(i)(u)] — with [E_i(v) = w(v,u) + E_i(u)].
   Every finite value is a source; [updatable] restricts which nodes
   may change (phase B must not touch phase-A results). Under [Sync]
   ([weight = None]) every hop weighs 1, so a bucket queue indexed by
   distance settles the values a Dijkstra would: buckets are scanned
   in increasing order and a relaxation from bucket [d] files into
   [d + 1] only. *)
let relax net ~weight ~qi values updatable =
  let opp = Quadrant.opposite qi in
  let hop = Option.value weight ~default:(fun _ _ -> 1) in
  let settle ~push d u =
    if d = values.(u) then
      Array.iter
        (fun v ->
          if updatable.(v) then begin
            let cand = hop v u + d in
            if cand < values.(v) then begin
              values.(v) <- cand;
              push cand v
            end
          end)
        (Network.neighbors_in_quadrant net u opp)
  in
  match weight with
  | None ->
      (* A path has fewer than n hops, so no value passes top + n - 1. *)
      let top = Array.fold_left (fun acc d -> if d = infinity_ then acc else max acc d) (-1) values in
      let buckets = Array.make (top + Array.length values + 1) [] in
      let push d u = buckets.(d) <- u :: buckets.(d) in
      Array.iteri (fun u d -> if d <> infinity_ then push d u) values;
      Array.iteri (fun d us -> List.iter (settle ~push d) us) buckets
  | Some _ ->
      (* Typed at int, so [compare] is not the polymorphic C call. *)
      let heap = Heap.create ~cmp:(fun ((d1 : int), _) (d2, _) -> compare d1 d2) in
      let push d u = Heap.push heap (d, u) in
      Array.iteri (fun u d -> if d <> infinity_ then push d u) values;
      let rec drain () =
        match Heap.pop heap with
        | None -> ()
        | Some (d, u) ->
            settle ~push d u;
            drain ()
      in
      drain ()

type seeding = Two_phase | Merged

let compute ?(seeding = Two_phase) model =
  let net = Model.network model in
  let weight =
    match Model.system model with Model.Sync -> None | Model.Async _ -> Some (edge_weights model)
  in
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
      relax net ~weight ~qi vq all;
      (* Phase B: re-seed interior local minima (step 5), then update the
         remaining ∞ values — and only those (step 6). A no-op under
         [Merged], where those nodes were seeded up front. *)
      let updatable = Array.map (fun d -> d = infinity_) vq in
      for u = 0 to n - 1 do
        if vq.(u) = infinity_ && empty_quadrant u then vq.(u) <- 0
      done;
      relax net ~weight ~qi vq updatable;
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
  let ist = Istate.create (Model.n_nodes model) in
  Istate.reset ist model ~w:(Model.initial_w model ~source);
  let rec loop slot steps =
    if Istate.complete ist then List.rev steps
    else
      match Istate.next_active_slot ist ~after:(slot - 1) with
      | None -> failwith "Emodel.pipeline: empty frontier before completion"
      | Some t -> (
          match classes_of ist ~slot:t with
          | [] -> failwith "Emodel.pipeline: active slot without candidates"
          | classes ->
              let senders = List.nth classes (select ~w:(Istate.w ist) ~classes) in
              Istate.apply ist ~senders;
              let informed = Istate.last_added ist in
              loop (t + 1) ({ Schedule.slot = t; senders; informed } :: steps))
  in
  Schedule.make ~n_nodes:(Model.n_nodes model) ~source ~start (loop start [])

let plan model ~source ~start =
  pipeline ~classes_of:Istate.greedy_classes ~select:(select (compute model) model) model
    ~source ~start
