(* The incremental search state must be indistinguishable, query for
   query, from the from-scratch recomputations it replaces: a random
   walk of interleaved [apply]/[undo] over random UDG deployments is
   compared at every step against [Model]/[Mcounter] evaluated on the
   materialised informed set, and the carried hash against
   [Bitset.hash]. *)

module Bitset = Mlbs_util.Bitset
module Interference = Mlbs_phy.Interference
module Model = Mlbs_core.Model
module Walk = Test_support.Model_walk
module Choices = Mlbs_core.Choices
module Istate = Mlbs_core.Istate
module Mcounter = Mlbs_core.Mcounter
module Emodel = Mlbs_core.Emodel
module Trace = Mlbs_core.Trace
module Schedule = Mlbs_core.Schedule
module Baseline26 = Mlbs_core.Baseline26
module Baseline17 = Mlbs_core.Baseline17
module Ablation = Mlbs_workload.Ablation
module Wake_schedule = Mlbs_dutycycle.Wake_schedule

(* Naive frontier count: |N(u) ∩ W̄| straight off the graph. *)
let naive_uncov model ~w u = Model.n_receivers model ~w u

let check_agrees ~ctx model st ~w ~slot =
  let n = Model.n_nodes model in
  if not (Bitset.equal (Istate.w st) w) then
    Alcotest.failf "%s: informed set diverged" ctx;
  Alcotest.(check int) (ctx ^ ": whash") (Bitset.hash w) (Istate.whash st);
  Alcotest.(check int) (ctx ^ ": n_informed") (Bitset.cardinal w) (Istate.n_informed st);
  Alcotest.(check bool) (ctx ^ ": complete") (Model.complete model ~w) (Istate.complete st);
  for u = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: uncov %d" ctx u)
      (naive_uncov model ~w u) (Istate.uncov st u)
  done;
  Alcotest.(check int) (ctx ^ ": lb") (Mcounter.hop_lower_bound model ~w) (Istate.lb st);
  (* The maintained layers are the BFS layers of W, and none past the
     last: [layer] refuses the distance above them. *)
  let layers = Walk.layers model ~w in
  List.iteri
    (fun i l ->
      if not (Bitset.equal (Istate.layer st ~d:(i + 1)) l) then
        Alcotest.failf "%s: layer %d diverged" ctx (i + 1))
    layers;
  (match Istate.layer st ~d:(List.length layers + 1) with
  | _ -> Alcotest.failf "%s: a layer past the last" ctx
  | exception Invalid_argument _ -> ());
  Alcotest.(check (list int))
    (ctx ^ ": candidates")
    (Walk.candidates model ~w ~slot)
    (Istate.candidates st ~slot);
  Alcotest.(check (list (list int)))
    (ctx ^ ": greedy classes")
    (Walk.greedy_classes model ~w ~slot)
    (Istate.greedy_classes st ~slot);
  Alcotest.(check (option int))
    (ctx ^ ": next active slot")
    (Walk.next_active_slot model ~w ~after:slot)
    (Istate.next_active_slot st ~after:slot);
  List.iter
    (fun space ->
      Alcotest.(check (list (list int)))
        (ctx ^ ": enumerate")
        (Walk.enumerate model space ~w ~slot)
        (Choices.enumerate st space ~slot))
    [ Choices.Greedy; Choices.All { max_sets = 32 } ]

(* Random walk: at each step either undo (when possible) or apply one
   enumerated choice, checking full agreement after every move. The
   stack holds the naive (copied) informed sets for comparison and for
   slot bookkeeping. *)
let walk_agrees ((model, _seed), moves) =
  let n = Model.n_nodes model in
  let st = Istate.create n in
  let w0 = Model.initial_w model ~source:0 in
  Istate.reset st model ~w:w0;
  let stack = ref [ (Bitset.copy w0, 1) ] in
  check_agrees ~ctx:"initial" model st ~w:w0 ~slot:1;
  List.iter
    (fun r ->
      let w, slot = List.hd !stack in
      if r mod 4 = 0 && Istate.depth st > 0 then begin
        Istate.undo st;
        stack := List.tl !stack;
        let w', slot' = List.hd !stack in
        check_agrees ~ctx:"after undo" model st ~w:w' ~slot:slot'
      end
      else if not (Model.complete model ~w) then begin
        let choices = Walk.enumerate model Choices.Greedy ~w ~slot in
        match choices with
        | [] ->
            (* No awake candidate this slot (async lull): advance time. *)
            stack := (w, slot + 1) :: List.tl !stack
        | _ ->
            (* probe_child must agree with an apply/undo round-trip for
               every enumerated choice, not just the one taken. *)
            List.iter
              (fun c ->
                let plb, pcov = Istate.probe_child st ~senders:c in
                Istate.apply st ~senders:c;
                Alcotest.(check int) "probe lb" (Istate.lb st) plb;
                Alcotest.(check int)
                  "probe cov"
                  (List.length (Istate.last_added st))
                  pcov;
                Istate.undo st)
              choices;
            let senders = List.nth choices (abs r mod List.length choices) in
            Istate.apply st ~senders;
            Alcotest.(check (list int))
              "last_added = newly_informed, ascending"
              (Walk.newly_informed model ~w ~senders)
              (Istate.last_added st);
            let w' = Walk.apply model ~w ~senders in
            stack := (w', slot + 1) :: !stack;
            check_agrees ~ctx:"after apply" model st ~w:w' ~slot:(slot + 1)
      end)
    moves;
  (* Full rewind lands exactly back on the root state. *)
  Istate.rewind st ~depth:0;
  check_agrees ~ctx:"after rewind" model st ~w:w0 ~slot:1;
  true

(* Each class's coverage set — the search's probe seeds and child memo
   keys — is exactly what applying its senders informs, under every
   backend, at every position of a greedy walk from a random informed
   set. *)
let coverage_agrees (model, members) =
  let n = Model.n_nodes model in
  let st = Istate.create n in
  Istate.reset st model ~w:(Bitset.of_list n (0 :: members));
  let rec walk slot =
    let w = Bitset.copy (Istate.w st) in
    match Istate.greedy_classes_cov st ~slot with
    | [] -> true
    | (first, _) :: _ as rows ->
        List.iter
          (fun (senders, cov) ->
            Alcotest.(check (list int))
              "coverage = newly informed"
              (Walk.newly_informed model ~w ~senders)
              (Bitset.elements cov))
          rows;
        Istate.apply st ~senders:first;
        walk (slot + 1)
  in
  walk 1

let gen_phy_model_and_members =
  QCheck2.Gen.(
    let* phy =
      oneofl Interference.[ Udg; Multichannel 2; Sinr default_sinr ]
    in
    let* n = int_range 4 16 in
    let* seed = int_bound 100000 in
    let model = Model.create ~phy (Test_support.small_network ~n ~seed) Model.Sync in
    let* members = list_size (int_bound (n - 1)) (int_bound (n - 1)) in
    return (model, members))

(* Every off-line planner walks an [Istate]; each must produce the
   schedule of its from-scratch walk over W, step for step, under every
   backend, in both systems. *)
let gen_planner_model =
  QCheck2.Gen.(
    let* phy = oneofl Interference.[ Udg; Multichannel 2; Sinr default_sinr ] in
    let* n = int_range 4 12 in
    let* seed = int_bound 100000 in
    let* rate = oneofl [ None; Some 3; Some 6 ] in
    let net = Test_support.small_network ~n ~seed in
    let system =
      match rate with
      | None -> Model.Sync
      | Some rate -> Model.Async (Wake_schedule.create ~rate ~n_nodes:n ~seed ())
    in
    return (Model.create ~phy net system))

let print_planner_model model =
  Printf.sprintf "n=%d phy=%s %s" (Model.n_nodes model)
    (Interference.to_string (Model.phy model))
    (match Model.system model with Model.Sync -> "sync" | Model.Async _ -> "async")

let planners_agree model =
  let source = 0 and start = 1 in
  let same label (got : Schedule.t) (want : Schedule.t) =
    Schedule.steps got = Schedule.steps want
    || QCheck2.Test.fail_reportf "%s: schedule differs from the W walk" label
  in
  let trace = Trace.run model Choices.Greedy ~source ~start in
  let walk = Walk.trace_run model Choices.Greedy ~source ~start in
  let sync = Model.system model = Model.Sync in
  same "Emodel.plan" (Emodel.plan model ~source ~start) (Walk.emodel_plan model ~source ~start)
  && same "First_class"
       (Ablation.plan_with_selector model Ablation.First_class ~source ~start)
       (Walk.first_class_plan model ~source ~start)
  && same "By_hop_to_source"
       (Ablation.plan_with_selector model Ablation.By_hop_to_source ~source ~start)
       (Walk.hop_to_source_plan model ~source ~start)
  && same "id order"
       (Ablation.plan_with_id_order model ~source ~start)
       (Walk.id_order_plan model ~source ~start)
  && same "Trace.run" trace.Trace.schedule walk.Trace.schedule
  && (trace.Trace.rows = walk.Trace.rows
     || QCheck2.Test.fail_reportf "Trace.run: rows differ from the W walk")
  &&
  if sync then
    same "Baseline26.plan" (Baseline26.plan model ~source ~start)
      (Walk.baseline26_plan model ~source ~start)
  else
    same "Baseline17.plan" (Baseline17.plan model ~source ~start)
      (Walk.baseline17_plan model ~source ~start)

let prop ?(count = 60) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_walk gen_model =
  QCheck2.Gen.(pair gen_model (list_size (int_bound 25) (int_bound 1000)))

(* hash_flip: flipping any bit through the carried-hash update equals
   re-hashing the mutated set. *)
let hash_flip_agrees (members, i) =
  let s = Bitset.create 80 in
  List.iter (Bitset.add s) members;
  let h = Bitset.hash s in
  let h' = Bitset.hash_flip s i h in
  (if Bitset.mem s i then Bitset.remove s i else Bitset.add s i);
  h' = Bitset.hash s

(* hash_union: carrying the hash across a union equals re-hashing the
   materialised union, and equal_union recognises exactly it. *)
let hash_union_agrees (s_members, cov_members) =
  let s = Bitset.of_list 80 s_members in
  let cov = Bitset.of_list 80 cov_members in
  let u = Bitset.union s cov in
  Bitset.hash_union s cov (Bitset.hash s) = Bitset.hash u
  && Bitset.equal_union u s cov
  && (Bitset.equal u s || not (Bitset.equal_union s s cov))

let () =
  Alcotest.run "incremental"
    [
      ( "istate",
        [
          prop "sync walk agrees with naive recompute" (gen_walk Test_support.gen_sync_model)
            walk_agrees;
          prop "async walk agrees with naive recompute"
            (gen_walk Test_support.gen_async_model) walk_agrees;
          prop ~count:200 "class coverage = newly informed (udg, mc:2, sinr)"
            gen_phy_model_and_members coverage_agrees;
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make ~count:150 ~print:print_planner_model
               ~name:"planners = the W walk (udg, mc:2, sinr; sync, async)" gen_planner_model
               planners_agree);
        ] );
      ( "hash",
        [
          prop ~count:300 "hash_flip = hash of flipped set"
            QCheck2.Gen.(
              pair (list_size (int_bound 60) (int_bound 79)) (int_bound 79))
            hash_flip_agrees;
          prop ~count:300 "hash_union = hash of union"
            QCheck2.Gen.(
              pair
                (list_size (int_bound 60) (int_bound 79))
                (list_size (int_bound 60) (int_bound 79)))
            hash_union_agrees;
        ] );
    ]
