(** SINR physical interference model ("Towards Tight Bounds for Local
    Broadcasting", arXiv:1207.1836).

    A transmission from [u] is decodable at [x] iff

      P_u(x) / (noise + Σ_{m ≠ u} P_m(x))  ≥  β

    where the sum runs over every other node transmitting in the slot —
    including nodes outside communication range, whose signal is pure
    interference. Received power follows the log-distance path-loss
    law, normalised so a link at exactly the deployment's transmission
    radius receives [power]:

      P_u(x) = power · (radius / d(u, x))^α

    Deliverability is still gated on graph edges (communication range);
    only the denominator sees the whole network. With β ≥ 1 (enforced
    below) at most one sender can be decodable at any receiver — the
    capture effect — which both the class builder and the replay lean
    on. [power ≥ β·noise] is also enforced so a lone sender always
    covers its whole neighbourhood: P_u(x) ≥ power at d ≤ radius, hence
    singleton classes are always feasible and greedy construction
    terminates with full coverage.

    [make] evaluates the path-loss law once per node pair into a flat
    n² table (8·n² bytes per bound instance), so the class builder,
    the pairwise prefilter and the replay only read it: no [**] on the
    search path. *)

module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph
module Network = Mlbs_wsn.Network
module Point = Mlbs_geom.Point
module Metrics = Mlbs_obs.Metrics

type params = { alpha : float; beta : float; noise : float; power : float }

let default = { alpha = 3.0; beta = 2.0; noise = 0.2; power = 1.0 }

type t = {
  p : params;
  graph : Graph.t;
  n : int;
  pw : Float.Array.t;
      (** received power, row-major: [pw.(u·n + x)] is P_u(x) *)
}

(* The parameter constraints, shared by [make] and spec validation.
   NaN fails every comparison, so finiteness is checked first. *)
let check p =
  if not (List.for_all Float.is_finite [ p.alpha; p.beta; p.noise; p.power ]) then
    Error "alpha, beta, noise and power must be finite"
  else if p.beta < 1.0 then Error "beta must be >= 1 (capture effect)"
  else if p.alpha <= 0.0 then Error "alpha must be positive"
  else if p.noise < 0.0 then Error "noise must be non-negative"
  else if p.power <= 0.0 then Error "power must be positive"
  else if p.power < p.beta *. p.noise then
    Error "power must be >= beta * noise (a lone sender must reach its whole neighbourhood)"
  else Ok ()

let make net p =
  Result.iter_error (fun e -> invalid_arg ("Sinr.make: " ^ e)) (check p);
  let r = Network.radius net in
  let graph = Network.graph net in
  let pos = Network.positions net in
  (* Normalise at the longest graph edge when it exceeds the deployment
     radius. Synthetic geometries (explicit adjacencies, edited graphs)
     place nodes on a unit grid, so an edge can span several radii;
     normalising at the radius alone would leave it undecodable even
     for a lone sender and greedy construction could never cover its
     endpoint. Generated deployments keep every edge within the radius,
     so there this is exactly [radius²]. *)
  let r2 =
    List.fold_left
      (fun acc (u, v) -> Float.max acc (Point.dist2 pos.(u) pos.(v)))
      (r *. r) (Graph.edges graph)
  in
  (* One [**] per unordered pair, mirrored: [dist2] is exactly
     symmetric (it squares coordinate differences), so both halves hold
     the very float the formula gives either way round. The diagonal
     (d = 0, never a sender–receiver pair) stores the formula's +inf. *)
  let n = Array.length pos in
  let half_alpha = 0.5 *. p.alpha in
  let pw = Float.Array.make (n * n) 0.0 in
  for u = 0 to n - 1 do
    for x = u to n - 1 do
      let v = p.power *. ((r2 /. Point.dist2 pos.(u) pos.(x)) ** half_alpha) in
      Float.Array.set pw ((u * n) + x) v;
      Float.Array.set pw ((x * n) + u) v
    done
  done;
  { p; graph; n; pw }

let params t = t.p

(* Every kernel below counts the table reads it makes in a local and
   reports them with one [Metrics.add] per call: the same total as one
   increment per read, without a registry probe inside the loops. *)
let c_power_evals = Metrics.counter "phy/power_evals"

(* Received power of [u] at [x]: a read of the table [make] filled with
   power · (r² / d²(u, x))^(α/2). Positions are distinct (Network
   checks at construction), so d > 0 whenever u ≠ x. *)
let power_at t u x = Float.Array.get t.pw ((u * t.n) + x)

(* ------------------------- class builder --------------------------- *)

(* Incremental additive-feasibility zone: a class is feasible iff every
   node in (∪_m N(m)) ∩ W̄ can decode *some* adjacent member under the
   interference of the whole class — exactly the condition the replay
   and validator re-check, so a zone-built class is accepted by
   construction.

   State per claimed receiver x: [s.(x)] is the total class power at x,
   [capturer.(x)] the unique decodable member (unique because β ≥ 1)
   and [p_cap.(x)] its power. Admission of [u] only has to re-examine
   the current capturer and [u] itself: every other member already
   failed a smaller denominator, and interference only grows. *)
type zone = {
  z : t;
  mutable ubar : Bitset.t;  (** the slot's uninformed set (borrowed) *)
  s : float array;
  covered : Bitset.t;
  capturer : int array;
  p_cap : float array;
}

let zone z =
  let n = Graph.n_nodes z.graph in
  {
    z;
    ubar = Bitset.create n;
    s = Array.make n 0.0;
    covered = Bitset.create n;
    capturer = Array.make n (-1);
    p_cap = Array.make n 0.0;
  }

let zone_start zn ~uninformed =
  zn.ubar <- uninformed;
  Array.fill zn.s 0 (Array.length zn.s) 0.0;
  Bitset.clear zn.covered

(* Would admitting [u] keep every claimed receiver decodable? Both
   scans stop at the first receiver that would lose its signal. *)
let zone_admits zn u =
  let z = zn.z in
  let beta = z.p.beta and noise = z.p.noise in
  let evals = ref 0 in
  let ok =
    Bitset.for_all
      (fun x ->
        incr evals;
        let pu = power_at z u x in
        let pc = zn.p_cap.(x) in
        pc >= beta *. (noise +. zn.s.(x) +. pu -. pc)
        || (Graph.mem_edge z.graph u x && pu >= beta *. (noise +. zn.s.(x))))
      zn.covered
    && Array.for_all
         (fun x ->
           (not (Bitset.mem zn.ubar x))
           || Bitset.mem zn.covered x
           || begin
                incr evals;
                power_at z u x >= beta *. (noise +. zn.s.(x))
              end)
         (Graph.neighbors z.graph u)
  in
  Metrics.add c_power_evals !evals;
  ok

(* Commit [u] (must have been admitted): interference accumulates at
   every still-uninformed node — also the ones no member reaches yet,
   whose later admission checks must see it. *)
let zone_accept zn u =
  let z = zn.z in
  let beta = z.p.beta and noise = z.p.noise in
  let evals = ref 0 in
  Bitset.iter
    (fun x ->
      incr evals;
      let pu = power_at z u x in
      (if Bitset.mem zn.covered x then begin
         let pc = zn.p_cap.(x) in
         if pc < beta *. (noise +. zn.s.(x) +. pu -. pc) then begin
           zn.capturer.(x) <- u;
           zn.p_cap.(x) <- pu
         end
       end
       else if Graph.mem_edge z.graph u x then begin
         Bitset.add zn.covered x;
         zn.capturer.(x) <- u;
         zn.p_cap.(x) <- pu
       end);
      zn.s.(x) <- zn.s.(x) +. pu)
    zn.ubar;
  Metrics.add c_power_evals !evals

(* The invariant makes coverage and claim coincide: every node of
   (∪_m N(m)) ∩ W̄ is covered, so [covered] is exactly the informed-set
   delta the planner's apply will claim. *)
let zone_coverage zn = zn.covered

(* ---------------------- pairwise conservative ---------------------- *)

(* [conflicts t ~uninformed u v] is the two-element-class infeasibility
   test — the pairwise-conservative predicate the choice enumeration
   prefilters with. Equivalent to zone-building [u] then asking
   admission for [v] (and symmetric by construction). *)
let conflicts t ~uninformed u v =
  u <> v
  &&
  let beta = t.p.beta and noise = t.p.noise in
  let evals = ref 0 in
  let fails_over who other =
    Array.exists
      (fun x ->
        Bitset.mem uninformed x && x <> other
        &&
        let pw = power_at t who x and po = power_at t other x in
        evals := !evals + 2;
        let who_ok = pw >= beta *. (noise +. po) in
        let other_ok = Graph.mem_edge t.graph other x && po >= beta *. (noise +. pw) in
        not (who_ok || other_ok))
      (Graph.neighbors t.graph who)
  in
  let bad = fails_over u v || fails_over v u in
  Metrics.add c_power_evals !evals;
  bad

(* --------------------------- reception ----------------------------- *)

(* One receiver's slot outcome: [senders] is every node that actually
   transmitted (all of them interfere); decodability is restricted to
   graph edges. Returns the audible (adjacent) senders and the unique
   capturer, if any decodes. *)
let reception t ~senders ~rx =
  let total = List.fold_left (fun a u -> a +. power_at t u rx) 0.0 senders in
  let beta = t.p.beta and noise = t.p.noise in
  let audible = List.filter (fun u -> Graph.mem_edge t.graph u rx) senders in
  let evals = ref (List.length senders) in
  let capturer =
    List.find_opt
      (fun u ->
        incr evals;
        let pu = power_at t u rx in
        pu >= beta *. (noise +. total -. pu))
      audible
  in
  Metrics.add c_power_evals !evals;
  (audible, capturer)
