(* The from-scratch model walk: every frontier query recomputed from
   the informed set W alone, and every off-line planner re-spelled as a
   walk over W. The library walks one incremental state ([Istate]);
   this is the oracle its tests compare against, query for query and
   schedule for schedule. *)

module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph
module Bfs = Mlbs_graph.Bfs
module Indep = Mlbs_graph.Indep
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Interference = Mlbs_phy.Interference
module Udg = Mlbs_phy.Udg
module Model = Mlbs_core.Model
module Choices = Mlbs_core.Choices
module Emodel = Mlbs_core.Emodel
module Mcounter = Mlbs_core.Mcounter
module Schedule = Mlbs_core.Schedule
module Trace = Mlbs_core.Trace

(* ------------------------- frontier queries ------------------------ *)

(* [N(u) ∩ W̄], ascending. *)
let receivers model ~w u =
  Graph.fold_neighbors (Model.graph model) u ~init:[] ~f:(fun acc v ->
      if Bitset.mem w v then acc else v :: acc)
  |> List.rev

(* The informed nodes with an uninformed neighbour, ignoring wake-ups. *)
let frontier model ~w =
  List.rev
    (Bitset.fold (fun u acc -> if Model.n_receivers model ~w u > 0 then u :: acc else acc) w [])

(* Eq. (1) constraints 1–2, and under Async awake at [slot] (Eq. 3). *)
let candidates model ~w ~slot = List.filter (fun u -> Model.awake model u ~slot) (frontier model ~w)

(* [N(u) ∩ N(v) ∩ W̄ ≠ ∅] under UDG and mc:k (the intra-channel rule);
   the backend's pairwise-conservative test under SINR. *)
let conflicts model ~w u v =
  u <> v
  &&
  let uninformed = Bitset.complement w in
  match Model.phy_instance model with
  | Interference.I_udg g | Interference.I_mc { graph = g; _ } -> Udg.conflicts g ~uninformed u v
  | Interference.I_sinr _ as inst -> Interference.conflicts inst ~uninformed u v

(* Algorithm 1 at (W, slot): candidates by receiver count descending,
   then id, through the class builder; runs of k classes merge into one
   (slot, channel) class. *)
let greedy_classes model ~w ~slot =
  let counts = List.map (fun u -> (u, Model.n_receivers model ~w u)) (candidates model ~w ~slot) in
  let order =
    List.stable_sort
      (fun ((u : int), (cu : int)) (v, cv) -> if cu <> cv then compare cv cu else compare u v)
      counts
    |> List.map fst
  in
  let inst = Model.phy_instance model in
  Interference.classes_cov (Interference.classifier inst) ~uninformed:(Bitset.complement w) order
  |> Interference.merge_channels (Interference.channels (Model.phy model))
  |> List.map fst

(* [W + A]: a fresh set; [w] is not mutated. *)
let apply model ~w ~senders =
  let w' = Bitset.copy w in
  List.iter
    (fun u ->
      if not (Bitset.mem w u) then
        invalid_arg (Printf.sprintf "Model_walk.apply: sender %d not informed" u);
      Graph.iter_neighbors (Model.graph model) u ~f:(fun v -> Bitset.add w' v))
    senders;
  w'

let newly_informed model ~w ~senders = Bitset.elements (Bitset.diff (apply model ~w ~senders) w)

(* The earliest slot > [after] at which a frontier node is awake. *)
let next_active_slot model ~w ~after =
  match frontier model ~w with
  | [] -> None
  | front ->
      Some
        (List.fold_left
           (fun acc u -> min acc (Model.next_wake (Model.system model) u ~after))
           max_int front)

(* ------------------------- choice spaces --------------------------- *)

let maximal_sets ~conflicts ~max_sets cands =
  match cands with
  | [] -> []
  | _ ->
      let arr = Array.of_list cands in
      Indep.maximal ~n:(Array.length arr)
        ~conflict:(fun i j -> conflicts arr.(i) arr.(j))
        ~limit:max_sets
      |> List.map (List.map (fun i -> arr.(i)))

(* [Choices.enumerate] at (W, slot): the greedy classes, or the maximal
   conflict-free candidate sets — under SINR trimmed by one class pass,
   under mc:k extended by one pass per further channel. *)
let enumerate model space ~w ~slot =
  match space with
  | Choices.Greedy -> greedy_classes model ~w ~slot
  | Choices.All { max_sets } -> (
      let cands = candidates model ~w ~slot in
      let uninformed = Bitset.complement w in
      let inst = Model.phy_instance model in
      let sets = maximal_sets ~conflicts:(conflicts model ~w) ~max_sets cands in
      match inst with
      | Interference.I_udg _ | Interference.I_mc { k = 1; _ } -> sets
      | Interference.I_sinr _ ->
          let cls = Interference.classifier inst in
          List.map (fun set -> fst (Interference.pass cls ~uninformed set)) sets
      | Interference.I_mc { k; _ } ->
          let cls = Interference.classifier inst in
          List.map
            (fun s1 ->
              let rec channels ch senders remaining =
                if ch >= k || remaining = [] then senders
                else
                  let cl, rest = Interference.pass cls ~uninformed remaining in
                  channels (ch + 1) (senders @ cl) rest
              in
              channels 1 s1 (List.filter (fun u -> not (List.mem u s1)) cands))
            sets)

(* ---------------------------- planners ----------------------------- *)

let step model ~w ~slot senders =
  { Schedule.slot; senders; informed = newly_informed model ~w ~senders }

(* [Emodel.pipeline] over W. *)
let pipeline ~classes_of ~select model ~source ~start =
  let rec loop w slot steps =
    if Model.complete model ~w then List.rev steps
    else
      match next_active_slot model ~w ~after:(slot - 1) with
      | None -> failwith "Model_walk.pipeline: empty frontier before completion"
      | Some t -> (
          match classes_of ~w ~slot:t with
          | [] -> failwith "Model_walk.pipeline: active slot without candidates"
          | classes ->
              let senders = List.nth classes (select ~w ~classes) in
              loop (apply model ~w ~senders) (t + 1) (step model ~w ~slot:t senders :: steps))
  in
  let steps = loop (Model.initial_w model ~source) start [] in
  Schedule.make ~n_nodes:(Model.n_nodes model) ~source ~start steps

let emodel_plan model =
  pipeline ~classes_of:(greedy_classes model)
    ~select:(Emodel.select (Emodel.compute model) model)
    model

let first_class_plan model =
  pipeline ~classes_of:(greedy_classes model) ~select:(fun ~w:_ ~classes:_ -> 0) model

let hop_to_source_plan model ~source =
  let dist = (Bfs.run (Model.graph model) ~source).Bfs.dist in
  pipeline ~classes_of:(greedy_classes model)
    ~select:(fun ~w:_ ~classes -> Emodel.argmax_class (fun u -> dist.(u)) classes)
    model ~source

let id_order_plan model =
  let cls = Interference.classifier (Model.phy_instance model) in
  let classes_of ~w ~slot =
    Interference.classes cls ~uninformed:(Bitset.complement w) (candidates model ~w ~slot)
  in
  pipeline ~classes_of ~select:(fun ~w:_ ~classes:_ -> 0) model

(* [Trace.run] over W: every class scored by M at W + C. *)
let trace_run ?(budget = Mcounter.default_budget) model space ~source ~start =
  let evaluate ~w ~slot = (Mcounter.evaluate model space ~budget ~w ~slot).Mcounter.finish in
  let rec loop w slot rows steps =
    if Model.complete model ~w then (List.rev rows, List.rev steps)
    else
      match next_active_slot model ~w ~after:(slot - 1) with
      | None -> failwith "Model_walk.trace_run: empty frontier before completion"
      | Some t -> (
          match enumerate model space ~w ~slot:t with
          | [] -> failwith "Model_walk.trace_run: active slot without candidates"
          | choice_list ->
              let evals =
                List.map
                  (fun c ->
                    { Trace.members = c; m_value = evaluate ~w:(apply model ~w ~senders:c) ~slot:(t + 1) })
                  choice_list
              in
              let chosen, _ =
                List.fold_left
                  (fun (best_i, best_v) (i, e) ->
                    if e.Trace.m_value < best_v then (i, e.Trace.m_value) else (best_i, best_v))
                  (0, (List.hd evals).Trace.m_value)
                  (List.mapi (fun i e -> (i, e)) evals)
              in
              let senders = (List.nth evals chosen).Trace.members in
              let st = step model ~w ~slot:t senders in
              let row =
                { Trace.slot = t; w_before = Bitset.elements w; classes = evals; chosen;
                  advance = st.Schedule.informed }
              in
              loop (apply model ~w ~senders) (t + 1) (row :: rows) (st :: steps))
  in
  let rows, steps = loop (Model.initial_w model ~source) start [] [] in
  { Trace.rows; schedule = Schedule.make ~n_nodes:(Model.n_nodes model) ~source ~start steps }

(* [Baseline26.layer_classes] at W. *)
let layer_classes model ~w layer =
  let counts =
    List.filter_map
      (fun u ->
        let k = Model.n_receivers model ~w u in
        if k > 0 then Some (u, k) else None)
      layer
  in
  Model.color_classes model ~uninformed:(Bitset.complement w) counts

(* [Baseline26.plan] over W: BFS layers, each layer's classes in
   consecutive rounds. *)
let baseline26_plan model ~source ~start =
  let w = ref (Model.initial_w model ~source) and t = ref start and steps = ref [] in
  List.iter
    (fun layer ->
      List.iter
        (fun senders ->
          steps := step model ~w:!w ~slot:!t senders :: !steps;
          w := apply model ~w:!w ~senders;
          incr t)
        (layer_classes model ~w:!w layer))
    (Bfs.layers (Model.graph model) ~source);
  Schedule.make ~n_nodes:(Model.n_nodes model) ~source ~start (List.rev !steps)

(* [Baseline17.plan] over W: each color's senders fire at their own next
   wake-ups after its release; a slot group that would not replay clean
   at W fires its first class and re-times the rest. *)
let baseline17_plan model ~source ~start =
  let sched =
    match Model.system model with
    | Model.Async s -> s
    | Model.Sync -> invalid_arg "Model_walk.baseline17_plan: duty-cycle model required"
  in
  let w = ref (Model.initial_w model ~source) in
  let release = ref (start - 1) and steps = ref [] in
  let replays_clean senders =
    let ctx =
      Interference.slot_ctx (Model.phy_instance model) ~uninformed:(Bitset.complement !w)
        ~scheduled:senders
    in
    (not (Interference.overflow ctx))
    && Bitset.for_all
         (fun rx ->
           match Interference.reception ctx ~effective:senders ~rx with
           | Interference.Delivered _ -> true
           | Interference.Silent | Interference.Collision _ -> false)
         (Bitset.diff (apply model ~w:!w ~senders) !w)
  in
  let split group =
    let counts = List.map (fun u -> (u, Model.n_receivers model ~w:!w u)) group in
    match Model.color_classes model ~uninformed:(Bitset.complement !w) counts with
    | first :: _ -> (first, List.filter (fun u -> not (List.mem u first)) group)
    | [] -> assert false
  in
  let rec fire pending =
    match List.sort compare pending with
    | [] -> ()
    | (slot, _) :: _ as sorted ->
        let group, later = List.partition (fun (s, _) -> s = slot) sorted in
        let group = List.map snd group in
        let senders, retimed = if replays_clean group then (group, []) else split group in
        steps := step model ~w:!w ~slot senders :: !steps;
        w := apply model ~w:!w ~senders;
        release := max !release slot;
        fire (List.map (fun u -> (Wake_schedule.next_wake sched u ~after:slot, u)) retimed @ later)
  in
  List.iter
    (fun layer ->
      List.iter
        (fun senders ->
          if senders <> [] then
            fire (List.map (fun u -> (Wake_schedule.next_wake sched u ~after:!release, u)) senders))
        (layer_classes model ~w:!w layer))
    (Bfs.layers (Model.graph model) ~source);
  Schedule.make ~n_nodes:(Model.n_nodes model) ~source ~start (List.rev !steps)
