(* The pluggable interference subsystem: UDG extraction equivalence,
   SINR conflict/zone semantics, multi-channel grouping, and validator
   acceptance of every centralized planner under every backend. *)

module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph
module Network = Mlbs_wsn.Network
module Point = Mlbs_geom.Point
module Interference = Mlbs_phy.Interference
module Udg = Mlbs_phy.Udg
module Model = Mlbs_core.Model
module Scheduler = Mlbs_core.Scheduler
module Schedule = Mlbs_core.Schedule
module Baseline_cds = Mlbs_core.Baseline_cds
module Baseline26 = Mlbs_core.Baseline26
module Baseline17 = Mlbs_core.Baseline17
module Validate = Mlbs_sim.Validate
module Radio = Mlbs_sim.Radio
module Fixtures = Mlbs_workload.Fixtures
module Codec = Mlbs_server.Codec
module Daemon = Mlbs_server.Daemon
module Sinr = Mlbs_phy.Sinr
module Config = Mlbs_workload.Config
module Wake_schedule = Mlbs_dutycycle.Wake_schedule

let schedule_eq name a b =
  Alcotest.(check string) name (Codec.schedule_bytes a) (Codec.schedule_bytes b)

(* Generator: a small connected deployment plus a random informed set
   containing node 0 (so sender pairs can be drawn from it). *)
let gen_net_w =
  QCheck2.Gen.(
    let* n = int_range 5 16 in
    let* seed = int_bound 100_000 in
    let net = Test_support.small_network ~n ~seed in
    let n = Network.n_nodes net in
    let* mask = list_repeat n bool in
    let w = Bitset.create n in
    Bitset.add w 0;
    List.iteri (fun i b -> if b then Bitset.add w i) mask;
    return (net, w))

let print_net_w (net, w) =
  Printf.sprintf "n=%d informed=%s" (Network.n_nodes net)
    (String.concat "," (List.map string_of_int (Bitset.elements w)))

let informed_pairs w =
  let members = Bitset.elements w in
  List.concat_map (fun u -> List.map (fun v -> (u, v)) members) members

let backends =
  Interference.
    [ Udg; Sinr default_sinr; Sinr { default_sinr with beta = 4.0 };
      Multichannel 1; Multichannel 2; Multichannel 3 ]

(* ------------------- UDG extraction equivalence -------------------- *)

(* The extracted [Udg.conflicts] against the paper's predicate spelled
   out naively: N(u) ∩ N(v) ∩ W̄ ≠ ∅. *)
let qcheck_udg_spec =
  QCheck2.Test.make ~name:"Udg.conflicts = naive N(u) ∩ N(v) ∩ W̄ test" ~count:100 ~print:print_net_w
    gen_net_w (fun (net, w) ->
      let g = Network.graph net in
      let n = Graph.n_nodes g in
      let uninformed = Bitset.complement w in
      let naive u v =
        u <> v
        && List.exists
             (fun x ->
               Graph.mem_edge g u x && Graph.mem_edge g v x && Bitset.mem uninformed x)
             (List.init n Fun.id)
      in
      List.for_all
        (fun (u, v) -> Udg.conflicts g ~uninformed u v = naive u v)
        (informed_pairs w))

(* The row classifier against the pairwise oracle: on random symmetric
   rows, a random uninformed mask and a random visiting order,
   [Interference.classes] over [row_classifier] is [Coloring.greedy]
   over N(a) ∩ N(b) ∩ W̄ ≠ ∅, and each class covers exactly the union
   of its members' rows inside W̄. *)
let gen_rows_case =
  QCheck2.Gen.(
    let* n = int_range 1 24 in
    let* edges = list_repeat (n * (n - 1) / 2) (map (fun x -> x < 3) (int_bound 9)) in
    let* ubar = list_repeat n bool in
    let* order = shuffle_l (List.init n Fun.id) in
    let* keep = list_repeat n bool in
    let rows = Array.init n (fun _ -> Bitset.create n) in
    let pairs = List.concat (List.init n (fun a -> List.init (n - a - 1) (fun k -> (a, a + k + 1)))) in
    List.iter2
      (fun (a, b) e ->
        if e then begin
          Bitset.add rows.(a) b;
          Bitset.add rows.(b) a
        end)
      pairs edges;
    let mask = Bitset.of_list n (List.filteri (fun i _ -> List.nth ubar i) (List.init n Fun.id)) in
    return (rows, mask, List.filteri (fun i _ -> List.nth keep i) order))

let print_rows_case (rows, ubar, items) =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "rows=[%s] ubar=%s items=%s"
    (String.concat "; " (Array.to_list (Array.map (fun r -> ints (Bitset.elements r)) rows)))
    (ints (Bitset.elements ubar)) (ints items)

let qcheck_row_classifier =
  QCheck2.Test.make ~name:"row_classifier classes = pairwise greedy oracle" ~count:300
    ~print:print_rows_case gen_rows_case (fun (rows, ubar, items) ->
      let n = Array.length rows in
      let got = Interference.classes (Interference.row_classifier rows) ~uninformed:ubar items in
      let conflicts a b = a <> b && Bitset.intersects3 rows.(a) rows.(b) ubar in
      let covered cl =
        Bitset.of_list n
          (List.filter
             (fun x -> Bitset.mem ubar x && List.exists (fun m -> Bitset.mem rows.(m) x) cl)
             (List.init n Fun.id))
      in
      List.map fst got = Test_support.Coloring.greedy ~order:(fun _ _ -> 0) ~conflicts items
      && List.for_all (fun (cl, cov) -> Bitset.equal cov (covered cl)) got)

(* [Model.conflicts] on a default model still answers through the
   extracted backend — the old inline predicate and the new path are
   one code path, and must agree with the spec above. *)
let qcheck_model_dispatch =
  QCheck2.Test.make ~name:"Model.conflicts dispatches to the Udg backend" ~count:50 ~print:print_net_w
    gen_net_w (fun (net, w) ->
      let m = Model.create net Model.Sync in
      let g = Network.graph net in
      let uninformed = Bitset.complement w in
      List.for_all
        (fun (u, v) -> Model.conflicts m ~w u v = Udg.conflicts g ~uninformed u v)
        (informed_pairs w))

(* ----------------------- conflict symmetry ------------------------- *)

let qcheck_symmetry =
  QCheck2.Test.make ~name:"conflicts symmetric and irreflexive (all backends)"
    ~count:60 ~print:print_net_w gen_net_w (fun (net, w) ->
      let uninformed = Bitset.complement w in
      List.for_all
        (fun phy ->
          let inst = Interference.bind phy net in
          List.for_all
            (fun (u, v) ->
              Interference.conflicts inst ~uninformed u v
              = Interference.conflicts inst ~uninformed v u
              && not (Interference.conflicts inst ~uninformed u u))
            (informed_pairs w))
        backends)

(* --------------------- SINR β monotonicity ------------------------- *)

(* Raising the decode threshold only adds conflicts: every decode
   condition is of the form P ≥ β·(noise + I), anti-monotone in β. *)
let qcheck_beta_monotone =
  QCheck2.Test.make ~name:"sinr: conflicts monotone in beta" ~count:60 ~print:print_net_w gen_net_w
    (fun (net, w) ->
      let uninformed = Bitset.complement w in
      let inst b =
        Interference.(bind (Sinr { default_sinr with beta = b }) net)
      in
      let lo = inst 1.0 and mid = inst 2.0 and hi = inst 5.0 in
      List.for_all
        (fun (u, v) ->
          let c b = Interference.conflicts b ~uninformed u v in
          (not (c lo) || c mid) && (not (c mid) || c hi))
        (informed_pairs w))

(* ---------------------- SINR α attenuation ------------------------- *)

(* u → x at 6 ft (inside the 10 ft radius), interferer v at 12 ft from
   x (outside it). The signal grows and the interference shrinks as α
   rises, so the conflict must vanish monotonically: present at α = 1,
   gone from α = 2 on. *)
let test_alpha_regime () =
  let points = [| Point.v 0. 0.; Point.v 6. 0.; Point.v 18. 0. |] in
  let net = Network.create ~radius:10. points in
  let uninformed = Bitset.of_list 3 [ 1 ] in
  let conflict alpha =
    let inst =
      Interference.(bind (Sinr { default_sinr with alpha }) net)
    in
    Interference.conflicts inst ~uninformed 0 2
  in
  Alcotest.(check bool) "alpha=1: far interferer still drowns x" true (conflict 1.0);
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "alpha=%g: attenuation separates the pair" a)
        false (conflict a))
    [ 2.0; 3.0; 6.0 ]

(* ------------------ pair conflict ⟺ zone admission ----------------- *)

(* The pairwise prefilter is exactly two-element-class infeasibility:
   open a zone, accept u (singletons always feasible), and admission of
   v must be the negation of [conflicts u v]. *)
let qcheck_pair_zone =
  QCheck2.Test.make ~name:"sinr: pair conflict = two-element zone infeasibility"
    ~count:60 ~print:print_net_w gen_net_w (fun (net, w) ->
      let uninformed = Bitset.complement w in
      let inst = Interference.(bind (Sinr default_sinr) net) in
      let cls = Interference.classifier inst in
      List.for_all
        (fun (u, v) ->
          u = v
          ||
          (Interference.start_class cls ~uninformed;
           let singleton_ok = Interference.admits cls u in
           Interference.accept cls u;
           singleton_ok
           && Interference.admits cls v
              = not (Interference.conflicts inst ~uninformed u v)))
        (informed_pairs w))

(* ------------------- SINR received-power table --------------------- *)

(* Path loss written out from scratch: normalised at the longest edge
   when it exceeds the radius, power · (r² / d²)^(α/2). *)
let naive_r2 net =
  let pos = Network.positions net in
  List.fold_left
    (fun acc (u, v) -> Float.max acc (Point.dist2 pos.(u) pos.(v)))
    (Network.radius net ** 2.)
    (Graph.edges (Network.graph net))

let naive_power (p : Interference.sinr_params) net r2 u x =
  let pos = Network.positions net in
  p.power *. ((r2 /. Point.dist2 pos.(u) pos.(x)) ** (p.alpha /. 2.))

(* Every table entry is the very float the formula gives (so every
   admission decision matches it), in both directions. *)
let table_matches_formula net alpha =
  let p = { Interference.default_sinr with alpha } in
  let t = Sinr.make net p in
  let r2 = naive_r2 net in
  let n = Network.n_nodes net in
  List.for_all
    (fun u ->
      List.for_all
        (fun x ->
          u = x
          || Float.equal (Sinr.power_at t u x) (naive_power p net r2 u x)
             && Float.equal (Sinr.power_at t u x) (Sinr.power_at t x u))
        (List.init n Fun.id))
    (List.init n Fun.id)

let gen_alpha = QCheck2.Gen.oneofl [ 2.0; 2.5; 3.0; 6.0 ]

(* Also on the unit-grid geometry over the same graph, where edges span
   several grid units, so r² is the longest edge, not the radius. *)
let qcheck_power_table =
  QCheck2.Test.make ~name:"sinr: power table = naive path loss, symmetric" ~count:60
    ~print:(fun ((net, w), a) -> Printf.sprintf "%s alpha=%g" (print_net_w (net, w)) a)
    QCheck2.Gen.(pair gen_net_w gen_alpha)
    (fun ((net, _), alpha) ->
      table_matches_formula net alpha
      && table_matches_formula (Network.synthetic (Network.graph net)) alpha)

let test_synthetic_long_edge () =
  let g = Graph.of_edges ~n:9 [ (0, 8); (0, 1); (1, 2) ] in
  let syn = Network.synthetic g in
  Alcotest.(check bool) "r² is the longest edge" true (naive_r2 syn > Network.radius syn ** 2.);
  Alcotest.(check bool) "table matches" true (table_matches_formula syn 3.0)

(* -------------------- SINR zone against a naive check --------------- *)

(* Every greedy SINR class, re-checked from scratch: each uninformed
   node adjacent to a member decodes some adjacent member against the
   summed power of all the others, and the classifier's coverage is
   exactly that set of decodable nodes. *)
let zone_oracle p (net, w) =
  let phy = Interference.Sinr p in
  let g = Network.graph net in
  let n = Network.n_nodes net in
  let r2 = naive_r2 net in
  let uninformed = Bitset.complement w in
  let m = Model.create ~phy net Model.Sync in
  let cls = Interference.classifier (Interference.bind phy net) in
  List.for_all
    (fun members ->
      let decodes x u =
        let interference =
          List.fold_left
            (fun acc v -> if v = u then acc else acc +. naive_power p net r2 v x)
            0.0 members
        in
        naive_power p net r2 u x >= p.beta *. (p.noise +. interference)
      in
      let reached x = List.exists (fun u -> Graph.mem_edge g u x) members in
      let decodable x = List.exists (fun u -> Graph.mem_edge g u x && decodes x u) members in
      let xs = List.filter (Bitset.mem uninformed) (List.init n Fun.id) in
      Interference.start_class cls ~uninformed;
      List.iter (Interference.accept cls) members;
      List.for_all (fun x -> (not (reached x)) || decodable x) xs
      && Bitset.elements (Interference.class_coverage cls) = List.filter decodable xs)
    (Model.greedy_classes m ~w ~slot:1)

let qcheck_zone_oracle =
  QCheck2.Test.make ~name:"sinr: greedy classes pass a naive SINR check" ~count:80
    ~print:print_net_w gen_net_w (fun nw ->
      List.for_all
        (fun p -> zone_oracle p nw)
        Interference.[ default_sinr; { alpha = 2.5; beta = 1.0; noise = 0.0; power = 1.0 } ])

(* ------------- SINR classes over reach vs the full zone ------------ *)

(* [Interference.pass]/[classes] track SINR sums only on the receivers
   their items reach; the reference zone in test/support tracks all of
   W̄ with closures. Random informed sets and random item subsets in
   random order — a subset's reach is smaller than the whole
   frontier's — on deployments of up to 140 nodes, so the word loops
   cross word boundaries. One classifier serves every call, so stale
   scratch would show too. *)
let gen_reach_case =
  QCheck2.Gen.(
    let* n = int_range 5 140 in
    let* seed = int_bound 100_000 in
    let net = Test_support.small_network ~n ~seed in
    let n = Network.n_nodes net in
    let pick mask xs = List.filter_map (fun (b, x) -> if b then Some x else None) (List.combine mask xs) in
    let* mask = list_repeat n bool in
    let w = Bitset.of_list n (0 :: pick mask (List.init n Fun.id)) in
    let members = Bitset.elements w in
    let* item_lists =
      list_repeat 3
        (let* keep = list_repeat (List.length members) bool in
         shuffle_l (pick keep members))
    in
    return ((net, w), item_lists))

let print_reach_case (nw, item_lists) =
  Printf.sprintf "%s items=%s" (print_net_w nw)
    (String.concat " | "
       (List.map (fun l -> String.concat "," (List.map string_of_int l)) item_lists))

let qcheck_reach_ref =
  QCheck2.Test.make ~name:"sinr: pass/classes over reach = the zone over all of W̄" ~count:100
    ~print:print_reach_case gen_reach_case (fun ((net, w), item_lists) ->
      let uninformed = Bitset.complement w in
      let same_rows = List.equal (fun (a, ca) (b, cb) -> a = b && Bitset.equal ca cb) in
      List.for_all
        (fun p ->
          let z = Sinr.make net p in
          let cls = Interference.classifier (Interference.I_sinr z) in
          List.for_all
            (fun items ->
              let cl, rest = Interference.pass cls ~uninformed items in
              let cov = Bitset.copy (Interference.class_coverage cls) in
              let ref_cl, ref_rest, ref_cov = Test_support.Sinr_ref.pass z ~uninformed items in
              cl = ref_cl && rest = ref_rest && Bitset.equal cov ref_cov
              && same_rows
                   (Interference.classes cls ~uninformed items)
                   (Test_support.Sinr_ref.classes z ~uninformed items))
            item_lists)
        Interference.[ default_sinr; { alpha = 2.5; beta = 1.0; noise = 0.0; power = 1.0 } ])

(* ----------------------- golden served schedules ------------------- *)

(* G-OPT under SINR on paper deployments (n = 150, the service's source
   selection): MD5 of the schedule bytes, pinned. A change to the power
   arithmetic that moves any admission decision moves these. *)
let sinr_golden =
  [
    ("sinr", 400002, "592ea909a8c3c7d82d3de86258ca84dd");
    ("sinr", 400005, "60872da6a12fa719cf5229c28afe3b52");
    ("sinr", 400009, "7b19881132bcc3e63d9d663c34868d28");
    ("sinr", 400011, "c51c7d3c88db51ac84be8adc9717c3cf");
    ("sinr", 400020, "693d27f5c002e4642ec0bf3e23bb08b4");
    ("sinr:2.5,1,0,1", 400002, "84a439354a0fca8071277ab96dc53d6a");
    ("sinr:2.5,1,0,1", 400005, "e67e0e412f6ad760fdf9790fbc7492c6");
    ("sinr:2.5,1,0,1", 400009, "d1f934541bae8b5955dcb4b84ed9c484");
    ("sinr:2.5,1,0,1", 400011, "0c66e435c0d19f0521dc285e7471bf6e");
    ("sinr:2.5,1,0,1", 400020, "9022757686e8c901bba0599a9df37a6a");
  ]

(* The served G-OPT bytes of the other cold-miss request classes, in
   the same form: (model, duty-cycle rate, n, seed, MD5). Their
   searches expand from 7 states (100002, 300001) to 567 (100021). A
   change to the search or plan construction that moves any chosen
   advance moves these. *)
let served_golden =
  [
    ("udg", None, 300, 100001, "90ddba40fe9a9106ce86f744ea877f97");
    ("udg", None, 300, 100002, "b6e663121428e375e8ee9a5ac8c4b6a0");
    ("udg", None, 300, 100021, "3fab72e38581a8bc974e1a5c849ba964");
    ("udg", Some 10, 150, 200001, "ba1e3e1fdac4043734129a953f1a6d8c");
    ("udg", Some 10, 150, 200039, "54efd407b022186b4fcd363751758370");
    ("mc:2", None, 300, 300001, "1bbf7a8a0f48ff37b2954a670c9f3a89");
    ("mc:2", None, 300, 300002, "e4f1949f6d3879c5000170303b5b80e2");
    ("sinr", Some 10, 150, 400002, "4aae1d394da145b4ceec84532beaaab6");
    ("sinr", Some 10, 150, 400005, "210723369cf4cbf56616639d3b7998f4");
    ("sinr", Some 10, 150, 400009, "d12e920e6fe228996406e55301cdb7b6");
    ("sinr", None, 300, 2, "5236457a3c3fab89e617b136dad70f18");
    ("sinr", None, 300, 5, "45502a5b23caf73ef9acbe4257e1143b");
    ("sinr:2.5,1,0,1", Some 10, 150, 400002, "34d81134d3ae7ba4a09baa6a2f48b59b");
  ]

let test_sinr_golden () =
  List.iter
    (fun (spec, rate, n, seed, digest) ->
      let model = Result.get_ok (Interference.parse spec) in
      let req =
        {
          Codec.policy = Codec.Gopt;
          rate;
          seed;
          topology = Codec.Gen { n; radius = Config.default.Config.radius };
          source = None;
          start = 1;
          model;
        }
      in
      let _, s = Daemon.solve req in
      Alcotest.(check string)
        (Printf.sprintf "%s rate %s n %d seed %d" spec
           (Option.fold ~none:"sync" ~some:string_of_int rate)
           n seed)
        digest
        (Digest.to_hex (Digest.string (Codec.schedule_bytes s))))
    (List.map (fun (spec, seed, digest) -> (spec, None, 150, seed, digest)) sinr_golden
    @ served_golden)

(* -------------- validator accepts every planner/backend ------------ *)

let policies m =
  [
    ("26/17-approx", fun () -> Scheduler.run m Scheduler.Baseline ~source:0 ~start:1);
    ("E-model", fun () -> Scheduler.run m Scheduler.Emodel ~source:0 ~start:1);
    ("G-OPT", fun () -> Scheduler.run m Scheduler.gopt ~source:0 ~start:1);
    ("CDS", fun () -> Baseline_cds.plan m ~source:0 ~start:1);
    ("layered-26", fun () -> Baseline26.plan m ~source:0 ~start:1);
  ]

let qcheck_planners_validate =
  QCheck2.Test.make ~name:"every centralized planner validates under every backend"
    ~count:25 ~print:print_net_w gen_net_w (fun (net, _) ->
      List.for_all
        (fun phy ->
          let m = Model.create ~phy net Model.Sync in
          List.for_all
            (fun (name, plan) ->
              let s = plan () in
              let r = Validate.check m s in
              if not (r.Validate.ok && Schedule.covers_all s) then
                QCheck2.Test.fail_reportf "%s under %s: %s" name
                  (Interference.to_string phy)
                  (String.concat "; " r.Validate.violations)
              else true)
            (policies m))
        backends)

(* --------------------------- mc:1 ≡ udg ---------------------------- *)

(* Under one channel every sender shares it (the overflow rule), so the
   on-line runners hear exactly UDG's radio too, synchronous and
   duty-cycled. *)
let qcheck_mc1_is_udg =
  QCheck2.Test.make ~name:"mc:1 schedules byte-equal to udg" ~count:40
    ~print:(fun ((net, w), duty) ->
      Printf.sprintf "%s duty=%s" (print_net_w (net, w))
        (match duty with None -> "sync" | Some (r, seed) -> Printf.sprintf "r%d/%d" r seed))
    QCheck2.Gen.(pair gen_net_w (opt (pair (int_range 2 8) (int_bound 100_000))))
    (fun ((net, _), duty) ->
      let system =
        match duty with
        | None -> Model.Sync
        | Some (rate, seed) ->
            Model.Async (Wake_schedule.create ~rate ~n_nodes:(Network.n_nodes net) ~seed ())
      in
      let runs phy =
        List.map Codec.schedule_bytes
          (List.map
             (fun policy -> Scheduler.run (Model.create ~phy net Model.Sync) policy ~source:0 ~start:1)
             [ Scheduler.Baseline; Scheduler.Emodel; Scheduler.gopt ]
          @ List.map
              (fun (_, (schedule, _)) -> schedule)
              (Test_support.runner_schedules (Model.create ~phy net system)))
      in
      runs Interference.Udg = runs (Interference.Multichannel 1))

(* The explicit [~phy:Udg] spells the default: schedules byte-equal. *)
let test_udg_default () =
  let net = Test_support.small_network ~n:30 ~seed:11 in
  let a = Scheduler.run (Model.create net Model.Sync) Scheduler.gopt ~source:0 ~start:1 in
  let b =
    Scheduler.run
      (Model.create ~phy:Interference.Udg net Model.Sync)
      Scheduler.gopt ~source:0 ~start:1
  in
  schedule_eq "explicit udg = default" a b

(* --------------------- channel separation -------------------------- *)

(* Fig. 2: senders 1 and 2 share the uninformed receiver 3, a collision
   under one channel. Two channels separate them — node 3 tunes the
   lowest channel with an adjacent scheduled sender and decodes it. *)
let test_mc_channel_separation () =
  let net = Fixtures.fig2.Fixtures.net in
  let colliding =
    Schedule.make ~n_nodes:5 ~source:0 ~start:1
      [
        { Schedule.slot = 1; senders = [ 0 ]; informed = [ 1; 2 ] };
        { Schedule.slot = 2; senders = [ 1; 2 ]; informed = [ 3; 4 ] };
      ]
  in
  let ok phy = (Validate.check (Model.create ~phy net Model.Sync) colliding).Validate.ok in
  Alcotest.(check bool) "collision under udg" false (ok Interference.Udg);
  Alcotest.(check bool) "overflow under mc:1" false (ok (Interference.Multichannel 1));
  Alcotest.(check bool) "separated under mc:2" true (ok (Interference.Multichannel 2));
  (* A lossy run may overflow: with one channel, 2 joins 1's and the
     two collide at 3, which 1's resend then informs. The lossy replay
     counts the collision; only the strict check refuses the overflow. *)
  let overflowing =
    Schedule.make ~n_nodes:5 ~source:0 ~start:1
      [
        { Schedule.slot = 1; senders = [ 0 ]; informed = [ 1; 2 ] };
        { Schedule.slot = 2; senders = [ 1; 2 ]; informed = [ 4 ] };
        { Schedule.slot = 3; senders = [ 1 ]; informed = [ 3 ] };
      ]
  in
  let mc1 = Model.create ~phy:(Interference.Multichannel 1) net Model.Sync in
  let lossy = Validate.check_lossy mc1 overflowing in
  Alcotest.(check bool) "lossy overflow ok" true lossy.Validate.ok;
  Alcotest.(check (list string)) "lossy overflow no violation" [] lossy.Validate.violations;
  Alcotest.(check (list (pair int (list int))))
    "collision at node 3"
    [ (3, [ 1; 2 ]) ]
    (List.concat_map
       (fun e -> e.Radio.collided)
       (Radio.replay ~allow_resend:true mc1 overflowing).Radio.events);
  Alcotest.(check bool)
    "strict check refuses the overflow" true
    (List.mem "slot 2: senders need more than 1 channel(s)"
       (Validate.check mc1 overflowing).Validate.violations)

(* ------------------------ spec id roundtrip ------------------------ *)

let test_spec_roundtrip () =
  List.iter
    (fun phy ->
      match Interference.parse (Interference.to_string phy) with
      | Ok p ->
          Alcotest.(check bool)
            (Interference.to_string phy ^ " roundtrips")
            true
            (Interference.equal p phy)
      | Error e -> Alcotest.failf "%s failed to parse: %s" (Interference.to_string phy) e)
    (backends
    @ Interference.
        [
          Sinr { alpha = 2.75; beta = 1.0e0 +. 1.0e-9; noise = 0.0; power = 3.125e-2 };
          Multichannel 255;
        ]);
  List.iter
    (fun bad ->
      match Interference.parse bad with
      | Ok _ -> Alcotest.failf "%S must not parse" bad
      | Error _ -> ())
    [
      "udgg"; "mc:0"; "mc:256"; "mc:x"; "sinr:1"; "sinr:3,0.5,0.2,1"; "sinr:0,2,0.2,1";
      "sinr:nan,2,0.2,1"; "sinr:3,nan,0.2,1"; "sinr:3,2,nan,1"; "sinr:inf,2,0.2,1";
      "sinr:3,2,0.2,inf";
    ]

(* A spec built directly, bypassing [parse], is still refused at bind. *)
let test_bind_rejects_nan () =
  let net = Test_support.small_network ~n:10 ~seed:3 in
  List.iter
    (fun p ->
      match Interference.bind (Interference.Sinr p) net with
      | _ -> Alcotest.failf "%s must not bind" (Interference.to_string (Interference.Sinr p))
      | exception Invalid_argument _ -> ())
    Interference.
      [
        { default_sinr with alpha = Float.nan };
        { default_sinr with beta = Float.nan };
        { default_sinr with noise = Float.nan };
        { default_sinr with power = Float.nan };
        { default_sinr with power = Float.infinity };
      ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "phy"
    [
      ( "udg extraction",
        [
          qt qcheck_udg_spec;
          qt qcheck_row_classifier;
          qt qcheck_model_dispatch;
          qt qcheck_symmetry;
        ] );
      ( "sinr",
        [
          qt qcheck_beta_monotone;
          Alcotest.test_case "alpha regime" `Quick test_alpha_regime;
          qt qcheck_pair_zone;
          qt qcheck_power_table;
          Alcotest.test_case "synthetic long edge" `Quick test_synthetic_long_edge;
          qt qcheck_zone_oracle;
          qt qcheck_reach_ref;
          Alcotest.test_case "golden G-OPT schedules" `Quick test_sinr_golden;
        ] );
      ( "schedules",
        [
          qt qcheck_planners_validate;
          qt qcheck_mc1_is_udg;
          Alcotest.test_case "udg default" `Quick test_udg_default;
          Alcotest.test_case "mc channel separation" `Quick test_mc_channel_separation;
        ] );
      ( "spec",
        [
          Alcotest.test_case "id roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "bind rejects non-finite" `Quick test_bind_rejects_nan;
        ] );
    ]
