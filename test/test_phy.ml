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
module Fixtures = Mlbs_workload.Fixtures
module Codec = Mlbs_server.Codec
module Daemon = Mlbs_server.Daemon
module Sinr = Mlbs_phy.Sinr
module Config = Mlbs_workload.Config

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

(* ----------------------- SINR golden schedules ---------------------- *)

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

let test_sinr_golden () =
  List.iter
    (fun (spec, seed, digest) ->
      let model = Result.get_ok (Interference.parse spec) in
      let req =
        {
          Codec.policy = Codec.Gopt;
          rate = None;
          seed;
          topology = Codec.Gen { n = 150; radius = Config.default.Config.radius };
          source = None;
          start = 1;
          model;
        }
      in
      let _, s = Daemon.solve req in
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d" spec seed)
        digest
        (Digest.to_hex (Digest.string (Codec.schedule_bytes s))))
    sinr_golden

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

let qcheck_mc1_is_udg =
  QCheck2.Test.make ~name:"mc:1 schedules byte-equal to udg" ~count:40 ~print:print_net_w gen_net_w
    (fun (net, _) ->
      List.for_all
        (fun policy ->
          let udg = Model.create net Model.Sync in
          let mc1 = Model.create ~phy:(Interference.Multichannel 1) net Model.Sync in
          Codec.schedule_bytes (Scheduler.run udg policy ~source:0 ~start:1)
          = Codec.schedule_bytes (Scheduler.run mc1 policy ~source:0 ~start:1))
        [ Scheduler.Baseline; Scheduler.Emodel; Scheduler.gopt ])

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
  Alcotest.(check bool) "separated under mc:2" true (ok (Interference.Multichannel 2))

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
        [ qt qcheck_udg_spec; qt qcheck_model_dispatch; qt qcheck_symmetry ] );
      ( "sinr",
        [
          qt qcheck_beta_monotone;
          Alcotest.test_case "alpha regime" `Quick test_alpha_regime;
          qt qcheck_pair_zone;
          qt qcheck_power_table;
          Alcotest.test_case "synthetic long edge" `Quick test_synthetic_long_edge;
          qt qcheck_zone_oracle;
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
