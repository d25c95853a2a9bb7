(* The paper's Figure 1 example, end to end: why the "obvious" relay
   choice defers the broadcast, and how the time counter M and the
   E-model both find the pipelined optimum.

     dune exec examples/fig1_walkthrough.exe *)

module Fixtures = Mlbs_workload.Fixtures
module Model = Mlbs_core.Model
module Choices = Mlbs_core.Choices
module Istate = Mlbs_core.Istate
module Trace = Mlbs_core.Trace
module Emodel = Mlbs_core.Emodel
module Schedule = Mlbs_core.Schedule
module Baseline26 = Mlbs_core.Baseline26
module Q = Mlbs_geom.Quadrant

let () =
  let { Fixtures.net; source; start; name } = Fixtures.fig1 in
  let model = Model.create net Model.Sync in

  print_endline "== Figure 1: the source s reaches {0,1,2}; all three relays";
  print_endline "== conflict at node 3, so one color fires per round.";
  print_newline ();

  (* The G-OPT trace is the paper's Table III: each row shows the greedy
     color classes and the time counter M for each choice. *)
  print_endline "G-OPT schedule (Table III):";
  let trace = Trace.run model Choices.Greedy ~source ~start in
  print_string (Trace.render ~node_name:name trace);
  print_newline ();

  (* The wrong early choice (Figure 1(b)): firing node 0 first strands
     {4,8,9,10} behind an interference at node 4 and costs a round. *)
  let ist = Istate.create (Model.n_nodes model) in
  Istate.reset ist model ~w:(Model.initial_w model ~source);
  Istate.apply ist ~senders:[ source ];
  Istate.apply ist ~senders:[ 0 ];
  let m =
    Mlbs_core.Mcounter.evaluate model Choices.Greedy
      ~budget:Mlbs_core.Mcounter.default_budget ~w:(Istate.w ist) ~slot:3
  in
  Printf.printf "Figure 1(b): firing node 0 first ends at round %d (one round late)\n\n"
    m.Mlbs_core.Mcounter.finish;

  (* The E-model reaches the same decision without any search: node 1
     carries the largest hop-distance-to-edge estimate E_2 = 2. *)
  let e = Emodel.compute model in
  print_endline "E-model 4-tuple (quadrant Q2, toward the far edge):";
  List.iter
    (fun u -> Printf.printf "  E_2(%s) = %d\n" (name u) (Emodel.value e ~node:u Q.Q2))
    [ 7; 8; 9; 0; 4; 5; 6; 10; 1 ];
  let plan = Emodel.plan model ~source ~start in
  Printf.printf "E-model latency: %d rounds (the optimum)\n\n" (Schedule.elapsed plan);

  (* The prior layered scheme cannot pipeline across BFS layers. *)
  let b = Baseline26.plan model ~source ~start in
  Printf.printf "layered 26-approximation latency: %d rounds\n" (Schedule.elapsed b)
