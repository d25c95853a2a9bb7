module Stats = Mlbs_util.Stats
module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Fixtures = Mlbs_workload.Fixtures
module Config = Mlbs_workload.Config
module Experiment = Mlbs_workload.Experiment
module Figures = Mlbs_workload.Figures
module Report = Mlbs_workload.Report

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

(* ----------------------- golden traces ----------------------------- *)

let test_table2_golden () =
  let t = Figures.table2 () in
  (* Table II's rows: s=node 1 relays to {2,3}; then C1={2} (selected,
     finishing at 2) beats C2={3}; P(A)=2. *)
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle t))
    [
      "C1={1}  M=2  <- selected";
      "A={2,3}";
      "C1={2}  M=2  <- selected";
      "C2={3}  M=3";
      "A={4,5}";
      "P(A)=2";
    ]

let test_table3_golden () =
  let t = Figures.table3 () in
  (* Table III's headline rows: the three colors at W={s,0,1,2} with
     C2={1} selected (M=3), then {0,4} finishing the broadcast. *)
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle t))
    [
      "C1={s}  M=3  <- selected";
      "A={0,1,2}";
      "C1={0}  M=4";
      "C2={1}  M=3  <- selected";
      "C3={2}  M=4";
      "A={3,4,10}";
      "C1={0,4}  M=3  <- selected";
      "A={5,6,7,8,9}";
      "P(A)=3";
    ]

let test_table4_golden () =
  let t = Figures.table4 () in
  (* Table IV: start at t_s=2, advance at slot 4 choosing node 2's color
     (M=4) over node 3's (whose M is pushed past r+3=13); P(A)=4. *)
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle t))
    [
      "t=2"; "A={2,3}"; "t=4"; "C1={2}  M=4  <- selected"; "C2={3}  M=13"; "P(A)=4";
    ]

(* Whole rendered figures of the quick sweep, pinned by MD5. The quick
   budget still exhausts on a few instances, so these also pin the
   degraded lookahead path, not only the exact search. *)
let check_figure_digest figure expected () =
  let f = figure { Config.quick with Config.jobs = 1 } in
  Alcotest.(check string) "render_figure md5" expected
    (Digest.to_hex (Digest.string (Report.render_figure f)))

(* --------------------------- fixtures ------------------------------ *)

let test_fixture_shapes () =
  Alcotest.(check int) "fig1 size" 12 (Mlbs_wsn.Network.n_nodes Fixtures.fig1.Fixtures.net);
  Alcotest.(check int) "fig2 size" 5 (Mlbs_wsn.Network.n_nodes Fixtures.fig2.Fixtures.net);
  Alcotest.(check string) "fig1 source label" "s" (Fixtures.fig1.Fixtures.name 11);
  Alcotest.(check string) "fig2 labels shift" "1" (Fixtures.fig2.Fixtures.name 0);
  let _, sched = Fixtures.fig2_dc in
  Alcotest.(check int) "dc rate" 10 (Mlbs_dutycycle.Wake_schedule.rate sched)

(* ------------------------- experiments ----------------------------- *)

let tiny_cfg =
  {
    Config.quick with
    Config.node_counts = [ 40 ];
    seeds = [ 1; 2 ];
    budget = { Mlbs_core.Mcounter.max_states = 300; lookahead = 1; beam = 3 };
  }

let test_make_instance_deterministic () =
  let a = Experiment.make_instance tiny_cfg ~n:50 ~seed:1 in
  let b = Experiment.make_instance tiny_cfg ~n:50 ~seed:1 in
  Alcotest.(check int) "same source" a.Experiment.source b.Experiment.source;
  Alcotest.(check int) "same depth" a.Experiment.d b.Experiment.d;
  Alcotest.(check bool) "positive depth" true (a.Experiment.d > 0)

let test_run_sync_measurements () =
  let inst = Experiment.make_instance tiny_cfg ~n:50 ~seed:1 in
  let ms = Experiment.run_sync tiny_cfg inst in
  Alcotest.(check (list string)) "policy order"
    [ "26-approx"; "OPT"; "G-OPT"; "E-model" ]
    (List.map (fun m -> m.Experiment.policy) ms);
  List.iter
    (fun m ->
      Alcotest.(check bool) (m.Experiment.policy ^ " valid") true m.Experiment.valid;
      Alcotest.(check bool) (m.Experiment.policy ^ " positive") true (m.Experiment.elapsed > 0))
    ms;
  (* OPT is reported as min(OPT-search, G-OPT). *)
  let find p = List.find (fun m -> m.Experiment.policy = p) ms in
  Alcotest.(check bool) "OPT <= G-OPT" true
    ((find "OPT").Experiment.elapsed <= (find "G-OPT").Experiment.elapsed)

let test_run_async_measurements () =
  let inst = Experiment.make_instance tiny_cfg ~n:50 ~seed:1 in
  let ms = Experiment.run_async tiny_cfg ~rate:5 ~inst_seed:1 inst in
  Alcotest.(check (list string)) "policy order"
    [ "17-approx"; "OPT"; "G-OPT"; "E-model" ]
    (List.map (fun m -> m.Experiment.policy) ms);
  List.iter
    (fun m -> Alcotest.(check bool) (m.Experiment.policy ^ " valid") true m.Experiment.valid)
    ms

let test_mean_by_policy () =
  let mk policy elapsed = { Experiment.policy; elapsed; transmissions = 0; valid = true } in
  let runs = [ [ mk "A" 2; mk "B" 10 ]; [ mk "A" 4; mk "B" 20 ] ] in
  Alcotest.(check (list (pair string (float 1e-9)))) "means"
    [ ("A", 3.); ("B", 15.) ]
    (Experiment.mean_by_policy runs)

(* --------------------------- figures ------------------------------- *)

let test_fig3_structure () =
  let f = Figures.fig3 tiny_cfg in
  Alcotest.(check string) "id" "fig3" f.Figures.id;
  Alcotest.(check int) "one density" 1 (List.length f.Figures.x_values);
  Alcotest.(check (list string)) "series labels"
    [ "26-approx"; "OPT"; "G-OPT"; "E-model"; "OPT-analysis (d+2)" ]
    (List.map (fun s -> s.Figures.label) f.Figures.series);
  List.iter
    (fun s ->
      Alcotest.(check int) (s.Figures.label ^ " arity") 1 (List.length s.Figures.values))
    f.Figures.series

let test_fig5_analytical () =
  let f = Figures.fig5 tiny_cfg in
  Alcotest.(check (list string)) "series"
    [ "OPT-analysis (2r(d+2))"; "Bound of [12] (17kd)" ]
    (List.map (fun s -> s.Figures.label) f.Figures.series);
  (* 17kd with k=2r dominates 2r(d+2) for d >= 3. *)
  let v label =
    List.hd (List.find (fun s -> s.Figures.label = label) f.Figures.series).Figures.values
  in
  Alcotest.(check bool) "ordering" true
    (v "Bound of [12] (17kd)" > v "OPT-analysis (2r(d+2))")

let test_improvements () =
  let f =
    {
      Figures.id = "x";
      title = "t";
      x_label = "d";
      x_values = [ 0.1; 0.2 ];
      series =
        [
          { Figures.label = "base"; values = [ 10.; 20. ] };
          { Figures.label = "ours"; values = [ 5.; 5. ] };
        ];
    }
  in
  match Figures.improvements f ~baseline:"base" with
  | [ ("ours", frac) ] -> Alcotest.(check (float 1e-9)) "mean improvement" 0.625 frac
  | _ -> Alcotest.fail "unexpected improvements shape"

let test_report_render () =
  let f = Figures.fig3 tiny_cfg in
  let r = Report.render_figure f in
  Alcotest.(check bool) "has improvement line" true (contains ~needle:"vs 26-approx" r);
  let csv = Report.figure_csv f in
  Alcotest.(check bool) "csv header" true (contains ~needle:"density,26-approx" csv)

let test_csv_roundtrip_file () =
  let dir = Filename.temp_file "mlbs" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let f = Figures.fig5 tiny_cfg in
  let path = Report.write_csv ~dir f in
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Alcotest.(check bool) "header written" true (contains ~needle:"density" line)

(* --------------------------- ablations ----------------------------- *)

let ablation_cfg = { tiny_cfg with Config.seeds = [ 1 ] }

let rows tab = List.length (String.split_on_char '\n' (Mlbs_util.Tab.render tab))

let test_ablation_tables_render () =
  let module Ablation = Mlbs_workload.Ablation in
  List.iter
    (fun (name, tab) ->
      Alcotest.(check bool) (name ^ " non-trivial") true (rows tab > 5))
    [
      ("selector", Ablation.selector_table ablation_cfg ~n:50);
      ("wake family", Ablation.wake_family_table ablation_cfg ~n:50 ~rate:5);
      ("lookahead", Ablation.lookahead_table ablation_cfg ~n:50);
      ("relay set", Ablation.relay_set_table ablation_cfg ~n:50);
      ("localized sync", Ablation.localized_table ablation_cfg ~n:50 ~rate:None);
      ("localized async", Ablation.localized_table ablation_cfg ~n:50 ~rate:(Some 5));
      ("shapes", Ablation.shape_table ablation_cfg ~n:50);
      ("protocols", Ablation.protocol_table ablation_cfg ~n:50);
      ("resilience", Ablation.resilience_table ablation_cfg ~n:50 ~kill_fraction:0.1);
    ]

let test_plan_with_selector_valid () =
  let module Ablation = Mlbs_workload.Ablation in
  let inst = Experiment.make_instance ablation_cfg ~n:50 ~seed:2 in
  let model = Model.create inst.Experiment.net Model.Sync in
  List.iter
    (fun sel ->
      let plan =
        Ablation.plan_with_selector model sel ~source:inst.Experiment.source ~start:1
      in
      Alcotest.(check bool) "valid" true (Mlbs_sim.Validate.check model plan).Mlbs_sim.Validate.ok)
    [ Ablation.By_emodel; Ablation.By_hop_to_source; Ablation.First_class ];
  let plan =
    Ablation.plan_with_id_order model ~source:inst.Experiment.source ~start:1
  in
  Alcotest.(check bool) "id-order valid" true
    (Mlbs_sim.Validate.check model plan).Mlbs_sim.Validate.ok

let test_chart_in_render () =
  let f = Figures.fig3 tiny_cfg in
  let chart = Report.figure_chart f in
  Alcotest.(check bool) "chart nonempty" true (String.length chart > 0);
  Alcotest.(check bool) "chart embedded in render" true
    (contains ~needle:"a = 26-approx" (Report.render_figure f))

let () =
  Alcotest.run "workload"
    [
      ( "golden traces",
        [
          Alcotest.test_case "table II" `Quick test_table2_golden;
          Alcotest.test_case "table III" `Quick test_table3_golden;
          Alcotest.test_case "table IV" `Quick test_table4_golden;
          Alcotest.test_case "fig3 quick digest" `Quick
            (check_figure_digest Figures.fig3 "389376400d91d30ad1c031618fe59498");
          Alcotest.test_case "fig4 quick digest" `Quick
            (check_figure_digest Figures.fig4 "0a3e8819629cabeb548aa6a758f76233");
        ] );
      ("fixtures", [ Alcotest.test_case "shapes" `Quick test_fixture_shapes ]);
      ( "experiment",
        [
          Alcotest.test_case "deterministic instance" `Quick test_make_instance_deterministic;
          Alcotest.test_case "sync measurements" `Quick test_run_sync_measurements;
          Alcotest.test_case "async measurements" `Quick test_run_async_measurements;
          Alcotest.test_case "mean by policy" `Quick test_mean_by_policy;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig3 structure" `Quick test_fig3_structure;
          Alcotest.test_case "fig5 analytical" `Quick test_fig5_analytical;
          Alcotest.test_case "improvements" `Quick test_improvements;
          Alcotest.test_case "report render" `Quick test_report_render;
          Alcotest.test_case "csv file" `Quick test_csv_roundtrip_file;
          Alcotest.test_case "chart in render" `Quick test_chart_in_render;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "tables render" `Quick test_ablation_tables_render;
          Alcotest.test_case "selectors valid" `Quick test_plan_with_selector_valid;
        ] );
    ]
