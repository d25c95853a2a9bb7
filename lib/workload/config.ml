module Mcounter = Mlbs_core.Mcounter

type t = {
  node_counts : int list;
  seeds : int list;
  width : float;
  height : float;
  radius : float;
  min_ecc : int;
  max_ecc : int;
  budget : Mcounter.budget;
  opt_max_sets : int;
  jobs : int;
  loss_rates : float list;
  crash_fraction : float;
  fault_seed : int;
  model : Mlbs_phy.Interference.t;
}

let default =
  {
    node_counts = [ 50; 100; 150; 200; 250; 300 ];
    seeds = [ 1; 2; 3; 4; 5 ];
    width = 50.;
    height = 50.;
    radius = 10.;
    min_ecc = 5;
    max_ecc = 8;
    budget = { Mcounter.max_states = 2_000; lookahead = 2; beam = 4 };
    opt_max_sets = 32;
    jobs = Mlbs_util.Pool.default_jobs ();
    loss_rates = [ 0.; 0.05; 0.1; 0.2; 0.3 ];
    crash_fraction = 0.;
    fault_seed = 0xFA17;
    model = Mlbs_phy.Interference.Udg;
  }

let quick =
  {
    default with
    node_counts = [ 50; 150; 300 ];
    seeds = [ 1; 2 ];
    budget = { Mcounter.max_states = 500; lookahead = 1; beam = 3 };
    opt_max_sets = 16;
    loss_rates = [ 0.; 0.1; 0.2 ];
  }

let smoke =
  {
    quick with
    node_counts = [ 50 ];
    seeds = [ 1 ];
    budget = { Mcounter.max_states = 200; lookahead = 1; beam = 2 };
    opt_max_sets = 8;
    loss_rates = [ 0.; 0.2 ];
  }

let densities t =
  List.map (fun n -> float_of_int n /. (t.width *. t.height)) t.node_counts
