(* Why conflict awareness matters: blind flooding — the naive broadcast
   every node relays once — loses nodes to collisions (the "broadcast
   storm" of Ni et al., reference [17] of the paper), and the repair
   (persistent retransmission) pays thousands of extra sends. The
   conflict-aware pipeline gets everyone the message faster than either,
   with one transmission per relay.

     dune exec examples/broadcast_storm.exe *)

module Rng = Mlbs_prng.Rng
module Deployment = Mlbs_wsn.Deployment
module Model = Mlbs_core.Model
module Flooding = Mlbs_proto.Flooding
module Localized = Mlbs_proto.Localized
module Scheduler = Mlbs_core.Scheduler
module Schedule = Mlbs_core.Schedule

let () =
  let n = 200 in
  let rng = Rng.create 42 in
  let net = Deployment.generate rng (Deployment.paper_spec ~n_nodes:n) in
  let source = Deployment.select_source rng net ~min_ecc:5 ~max_ecc:8 in
  let model = Model.create net Model.Sync in
  Printf.printf "dense deployment: %d nodes, %.1f mean degree, source %d\n\n" n
    (Mlbs_graph.Metrics.average_degree (Mlbs_wsn.Network.graph net))
    source;

  Printf.printf "%-28s %8s %10s %12s %9s\n" "protocol" "latency" "collisions" "total sends"
    "coverage";
  let line label latency collisions sends covered =
    Printf.printf "%-28s %8d %10d %12d %8.0f%%\n" label latency collisions sends
      (100. *. covered)
  in

  (* 1. Blind flooding: every informed node relays once, immediately. *)
  let f = Flooding.run model Flooding.Once ~source ~start:1 in
  line "blind flooding (once)" f.Flooding.latency f.Flooding.collisions
    (Schedule.n_transmissions f.Flooding.schedule)
    (float_of_int f.Flooding.informed /. float_of_int n);

  (* 2. Persistent flooding: retransmit until the neighbourhood has the
     message. Coverage recovers; the cost explodes. *)
  let p = Flooding.run model (Flooding.Persistent 0.3) ~source ~start:1 in
  line "persistent flooding (p=.3)" p.Flooding.latency p.Flooding.collisions
    (Schedule.n_transmissions p.Flooding.schedule)
    (float_of_int p.Flooding.informed /. float_of_int n);

  (* 3. The localized conflict-aware protocol: 2-hop coloring, E-based
     selection, back-off on the rare residual collision. *)
  let l = Localized.run model ~source ~start:1 in
  line "localized conflict-aware" l.Localized.latency l.Localized.collisions
    (Schedule.n_transmissions l.Localized.schedule)
    1.;

  (* 4. The centralized pipeline (G-OPT). *)
  let g = Scheduler.run model Scheduler.gopt ~source ~start:1 in
  line "centralized G-OPT" (Schedule.elapsed g) 0 (Schedule.n_transmissions g) 1.;

  print_newline ();
  print_endline
    "flooding either strands nodes behind collisions or floods the channel;\n\
     scheduling interference-free colors delivers everything in a fraction\n\
     of the time and the energy."
