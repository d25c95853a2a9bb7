module Bitset = Mlbs_util.Bitset
module Bfs = Mlbs_graph.Bfs
module Metrics = Mlbs_obs.Metrics
module Otrace = Mlbs_obs.Trace

(* Search observability (all behind the disabled-registry branch):
   nodes expanded, memo traffic, pre-apply child memo hits,
   branch-and-bound prunes, cutoffs (searches that returned a lower
   bound above their limit instead of an exact value), rollouts, budget
   exhaustions. Summed across domains these are identical at any
   [--jobs]: each instance's search is deterministic and runs whole on
   one domain. *)
let m_states = Metrics.counter "search/states"
let m_memo_hit = Metrics.counter "search/memo_hit"
let m_memo_miss = Metrics.counter "search/memo_miss"
let m_child_hit = Metrics.counter "search/child_memo_hit"
let m_prunes = Metrics.counter "search/bnb_prunes"
let m_cutoffs = Metrics.counter "search/cutoffs"
let m_rollouts = Metrics.counter "search/rollouts"
let m_exhausted = Metrics.counter "search/exhausted"
let m_seeded = Metrics.counter "search/seeded_entries"

(* Bound pruning, by decisive bound: candidates cut off once the
   incumbent meets the parent's eccentricity / packing floor, and
   siblings skipped by coverage-subset domination. *)
let m_prune_ecc = Metrics.counter "search/bound_prune_ecc"
let m_prune_pack = Metrics.counter "search/bound_prune_packing"
let m_prune_dom = Metrics.counter "search/dominance_prunes"

type budget = { max_states : int; lookahead : int; beam : int }

let default_budget = { max_states = 200_000; lookahead = 2; beam = 4 }

type evaluation = { finish : int; exact : bool; states : int }

exception Exhausted

(* ------------------------------------------------------------------ *)
(* Hop lower bound: multi-source BFS into a domain-local workspace.    *)
(* The scratch is keyed per domain (not global) so parallel sweeps in  *)
(* the experiment pool never race on it; it is resized lazily when the *)
(* node count changes between instances. The search itself never runs  *)
(* this BFS per candidate any more — it carries the same bound         *)
(* incrementally in its [Istate] — but the from-scratch form stays the *)
(* public reference (and the property-test oracle).                    *)
(* ------------------------------------------------------------------ *)

type scratch = { bfs : Bfs.scratch; ubar : Bitset.t }

let scratch_key : scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let local_scratch n =
  let slot = Domain.DLS.get scratch_key in
  match !slot with
  | Some sc when Bfs.scratch_capacity sc.bfs = n -> sc
  | _ ->
      let sc = { bfs = Bfs.scratch n; ubar = Bitset.create n } in
      slot := Some sc;
      sc

let hop_lower_bound model ~w =
  if Model.complete model ~w then 0
  else begin
    let sc = local_scratch (Model.n_nodes model) in
    Bfs.run_multi_into sc.bfs (Model.graph model) ~sources:w;
    Bitset.complement_into ~into:sc.ubar w;
    Bfs.max_dist_from sc.bfs ~within:sc.ubar
  end

let unreachable_msg = "Mcounter: some node is unreachable from the informed set"

(* ------------------------------------------------------------------ *)
(* Domain-local incremental state. One [Istate] per domain, resized    *)
(* when the node count changes; [prewarm] builds it ahead of the first *)
(* timed run so worker domains never allocate scratch mid-sweep.       *)
(* ------------------------------------------------------------------ *)

let istate_key : Istate.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let prewarm ~n =
  let slot = Domain.DLS.get istate_key in
  (match !slot with
  | Some st when Istate.capacity st = n -> ()
  | _ -> slot := Some (Istate.create n));
  ignore (local_scratch n)

let local_istate model ~w =
  let n = Model.n_nodes model in
  prewarm ~n;
  let st = Option.get !(Domain.DLS.get istate_key) in
  Istate.reset st model ~w;
  st

(* ------------------------------------------------------------------ *)
(* Transposition table, keyed by the informed set with its carried     *)
(* hash: lookups probe with the istate's live bitset (and its          *)
(* incrementally maintained hash) so they never copy or re-hash; only  *)
(* insertions intern a copy. One open-addressing [Ttable] per context, *)
(* keyed on (W, key slot): the active slot under Async, and 0 under    *)
(* Sync, whose values are time-shift invariant. The stored value is    *)
(* the span [finish − t + 1] from the active slot [t], which under     *)
(* Sync is the remaining advance count; an exact entry also holds the *)
(* advance chosen there. The table grows and never evicts here, so     *)
(* every value and move the search establishes stays available to plan *)
(* construction.                                                       *)
(* ------------------------------------------------------------------ *)

type ctx = {
  st : Istate.t;
  space : Choices.t;
  budget : budget;
  sync : bool;
  tt : Ttable.t;
  mutable states : int;
}

let make_ctx st space budget =
  let sync =
    match Model.system (Istate.model st) with Model.Sync -> true | Model.Async _ -> false
  in
  { st; space; budget; sync; tt = Ttable.create (); states = 0 }

(* Rank successors: fewest remaining hops first, then most coverage, then
   enumeration order (stable sort keeps it deterministic). The ranking
   keys come from the seeded probe — the same (bound, |W'|) pair an
   apply/undo round-trip would read off, without paying for one — and
   each successor carries its coverage set so the search can build child
   memo keys without applying either. *)
let ranked_successors ctx ~slot =
  let base = Istate.n_informed ctx.st in
  let score_cov (c, cov) =
    let lb, k = Istate.probe_seeded ctx.st ~seeds:cov in
    (lb, -(base + k), c, cov)
  in
  let scored =
    match ctx.space with
    | Choices.Greedy -> List.map score_cov (Istate.greedy_classes_cov ctx.st ~slot)
    | Choices.All _ ->
        List.map
          (fun c -> score_cov (c, Istate.coverage ctx.st ~senders:c))
          (Choices.enumerate ctx.st ctx.space ~slot)
  in
  List.stable_sort
    (fun (lb1, cov1, _, _) (lb2, cov2, _, _) ->
      if lb1 < lb2 then -1
      else if lb1 > lb2 then 1
      else if cov1 < cov2 then -1
      else if cov1 > cov2 then 1
      else 0)
    scored

(* The exact search's choices: the ranked successors less every
   candidate whose coverage is a subset of an earlier one's. A superset
   cover never ranks later (its hop bound is no larger and its |W'| is
   larger), so this keeps exactly the candidates with inclusion-maximal
   coverage, the first of equal ones. In the [All] space the drop is
   value-safe: a schedule from W replays from any W' ⊇ W with each color
   set cut to the senders that still have uninformed neighbours, which
   stays conflict-free and informs at least as much, so M is monotone
   and a dominated child never finishes earlier. The greedy classes are
   rebuilt from each W and are not monotone, so there the drop is part
   of the space G-OPT searches: a class that informs a subset of what a
   sibling class informs is never chosen. (A truncating [max_sets] also
   breaks the replay argument; OPT is then the documented approximation
   either way, so it keeps the drop when the cap binds: one code path,
   and the plan still matches the naive recursion over the same capped,
   coverage-maximal space.) The beam fallback ranks the full list. *)
let search_successors ctx ~slot =
  let rec keep kept = function
    | [] -> []
    | ((_, _, _, cov) as x) :: rest ->
        if List.exists (fun cov' -> Bitset.subset cov cov') kept then begin
          Metrics.incr m_prune_dom;
          keep kept rest
        end
        else x :: keep (cov :: kept) rest
  in
  keep [] (ranked_successors ctx ~slot)

(* Child memo probe without applying (Sync only: the child's key slot
   is 0 whatever its active slot): derive the child key (W ∪ cov)
   hash-and-all from the coverage set — [hash_union] re-mixes only the
   touched words, [equal_union] verifies a hit word-wise — so the probe
   allocates nothing and never materialises the union. The result is
   the child's exact span (a stored lower bound reads as a miss);
   [Some 0] for a completing advance mirrors the complete-check a
   recursive call would have short-circuited on. *)
let child_cached ctx ~cov =
  let st = ctx.st in
  let r =
    if Istate.n_informed st + Bitset.cardinal cov = Istate.capacity st then Some 0
    else
      let w = Istate.w st in
      let h = Bitset.hash_union w cov (Istate.whash st) in
      match Ttable.find_union ctx.tt ~h ~slot:0 ~base:w ~cov with
      | Some span when span > 0 -> Some span
      | _ -> None
  in
  if r <> None then Metrics.incr m_child_hit;
  r

(* ------------------------------------------------------------------ *)
(* Deterministic rollout: a cheap, always-terminating upper bound.     *)
(* ------------------------------------------------------------------ *)

let rollout_step ctx ~slot =
  match Istate.next_active_slot ctx.st ~after:(slot - 1) with
  | None -> None
  | Some t' -> (
      match ranked_successors ctx ~slot:t' with
      | (_, _, c, _) :: _ -> Some (t', c)
      | [] -> None)

let rollout_finish_i ctx ~slot =
  Metrics.incr m_rollouts;
  if Istate.lb ctx.st = max_int then failwith unreachable_msg;
  let d0 = Istate.depth ctx.st in
  let rec loop slot last =
    if Istate.complete ctx.st then last
    else
      match rollout_step ctx ~slot with
      | None ->
          Istate.rewind ctx.st ~depth:d0;
          failwith "Mcounter.rollout_finish: stuck before completion"
      | Some (t', c) ->
          Istate.apply ctx.st ~senders:c;
          loop (t' + 1) t'
  in
  let r = loop slot (slot - 1) in
  Istate.rewind ctx.st ~depth:d0;
  r

let rollout_finish model space ~w ~slot =
  let st = local_istate model ~w in
  rollout_finish_i (make_ctx st space default_budget) ~slot

(* ------------------------------------------------------------------ *)
(* Exact memoised branch-and-bound over [search_successors], with      *)
(* cutoffs. Every search carries a [limit]: it returns the exact [M]   *)
(* when [M ≤ limit] and otherwise any lower bound [> limit], which is  *)
(* all a parent needs to refute a child against its incumbent. Every   *)
(* skip below is value-safe (the skipped candidate is proved unable to *)
(* beat the incumbent) and ties keep the earlier candidate, so the     *)
(* evaluated finish and the chosen schedule are those of the plain     *)
(* memoised recursion over the same choices.                           *)
(* ------------------------------------------------------------------ *)

(* Parent-floor cuts count under the decisive bound's kind. *)
let bound_counter = function
  | Bounds.Ecc -> m_prune_ecc
  | Bounds.Packing -> m_prune_pack

(* The best advance at active slot [t] under [limit], shared by the
   exact search and plan construction. [floor] is [Bounds.remaining] at
   the position. Each candidate is scored with
   [cap = min limit (incumbent − 1)]: [score ~limit:cap ()] values the
   applied candidate, and with [probe] an exact memoised (or completing)
   child is read off the sync table without an apply. A result [≤ cap]
   is exact and becomes the incumbent; a larger one refutes the
   candidate. A candidate advancing at [t] finishes at ≥ t + floor − 1
   and at ≥ t + lb, so once the parent floor exceeds the cap the rest of
   the list is cut off, and a candidate whose hop bound exceeds it is
   skipped. The result is the first candidate with the least finish
   when that finish is [≤ limit], and otherwise the least child bound,
   at least the floor. *)
type advance =
  | Best of int * int list  (** exact finish [≤ limit], senders *)
  | Refuted of int  (** lower bound [> limit] *)

let best_advance ctx ~t ~limit ~floor:(floor_r, floor_k) succs ~probe ~score =
  let floor_v = t + floor_r - 1 in
  let result best lo = match best with Some (v, c) -> Best (v, c) | None -> Refuted (max floor_v lo) in
  let rec go best lo = function
    | [] -> result best lo
    | (lb, _, c, cov) :: rest as cands -> (
        let cap = match best with Some (bv, _) -> bv - 1 | None -> limit in
        if floor_v > cap then begin
          if Mlbs_obs.Obs.metrics_enabled () then
            Metrics.add (bound_counter floor_k) (List.length cands);
          result best floor_v
        end
        else if lb = max_int || t + lb > cap then begin
          Metrics.incr m_prunes;
          go best (if lb = max_int then lo else min lo (t + lb)) rest
        end
        else
          let v =
            match if probe then child_cached ctx ~cov else None with
            | Some v0 -> t + v0
            | None ->
                Istate.apply ctx.st ~senders:c;
                let v = score ~limit:cap () in
                Istate.undo ctx.st;
                v
          in
          if v <= cap then go (Some (v, c)) lo rest else go best (min lo v) rest)
  in
  if succs = [] then failwith "Mcounter: active slot without candidates";
  go None max_int succs

(* M(W, slot) under [limit], one recursion for both systems: idle gaps
   are skipped by jumping to the next slot [t] at which some frontier
   node is awake (under Sync, [slot] itself). Memo entries key on
   (W, t) under Async and on (W, 0) under Sync and hold the span
   [M − t + 1] when exact, or the negated span of a lower bound (every
   span of an incomplete position is ≥ 1, so the sign is the tag). A
   stored bound answers a probe it already refutes; otherwise the node
   is searched again and the result, exact or a higher bound, replaces
   it. A position whose own floor exceeds the limit is refuted without
   expanding it. *)
let rec finish ctx ~slot ~limit =
  let st = ctx.st in
  if Istate.complete st then slot - 1
  else
    match Istate.next_active_slot st ~after:(slot - 1) with
    | None -> failwith "Mcounter: empty frontier before completion"
    | Some t -> (
        let key = if ctx.sync then 0 else t in
        let h = Istate.whash st and set = Istate.w st in
        match Ttable.find ctx.tt ~h ~slot:key ~set with
        | Some span when span > 0 ->
            Metrics.incr m_memo_hit;
            t + span - 1
        | Some span when t - span - 1 > limit ->
            Metrics.incr m_memo_hit;
            t - span - 1
        | _ ->
            Metrics.incr m_memo_miss;
            let ((floor_r, _) as floor) = Bounds.remaining st in
            if t + floor_r - 1 > limit then begin
              Metrics.incr m_cutoffs;
              t + floor_r - 1
            end
            else begin
              let succs = search_successors ctx ~slot:t in
              let score ~limit () = finish ctx ~slot:(t + 1) ~limit in
              let r = best_advance ctx ~t ~limit ~floor succs ~probe:ctx.sync ~score in
              Metrics.incr m_states;
              ctx.states <- ctx.states + 1;
              if ctx.states > ctx.budget.max_states then raise Exhausted;
              match r with
              | Best (v, c) ->
                  Ttable.add ctx.tt ~h ~slot:key ~set ~move:c (v - t + 1);
                  v
              | Refuted b ->
                  Metrics.incr m_cutoffs;
                  Ttable.add ctx.tt ~h ~slot:key ~set (-(b - t + 1));
                  b
            end)

(* ------------------------------------------------------------------ *)
(* Beam-limited lookahead fallback.                                    *)
(* ------------------------------------------------------------------ *)

let take k xs =
  let rec go k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: go (k - 1) rest
  in
  go (max 0 k) xs

let rec lookahead_value ctx ~slot ~depth =
  if Istate.complete ctx.st then slot - 1
  else if depth = 0 then rollout_finish_i ctx ~slot
  else
    match Istate.next_active_slot ctx.st ~after:(slot - 1) with
    | None -> failwith "Mcounter: empty frontier before completion"
    | Some t -> (
        let succs = take ctx.budget.beam (ranked_successors ctx ~slot:t) in
        match succs with
        | [] -> failwith "Mcounter: active slot without candidates"
        | _ ->
            List.fold_left
              (fun acc (lb, _, c, _) ->
                (* Branch-and-bound, value-preserving: any completion
                   below this child finishes at ≥ t + lb, so a child
                   whose bound already reaches [acc] cannot lower the
                   minimum. *)
                if lb = max_int || (acc <> max_int && t + lb >= acc) then begin
                  Metrics.incr m_prunes;
                  acc
                end
                else begin
                  Istate.apply ctx.st ~senders:c;
                  let v = lookahead_value ctx ~slot:(t + 1) ~depth:(depth - 1) in
                  Istate.undo ctx.st;
                  min acc v
                end)
              max_int succs)

(* ------------------------------------------------------------------ *)
(* Public interface.                                                   *)
(* ------------------------------------------------------------------ *)

let evaluate ?(limit = max_int) model space ~budget ~w ~slot =
  Otrace.with_span ~arg:slot ~cat:"search" "evaluate" @@ fun () ->
  let st = local_istate model ~w in
  if Istate.lb st = max_int then failwith unreachable_msg;
  let ctx = make_ctx st space budget in
  try
    let f = finish ctx ~slot ~limit in
    { finish = f; exact = true; states = ctx.states }
  with Exhausted ->
    Metrics.incr m_exhausted;
    Istate.rewind st ~depth:0;
    let f = lookahead_value ctx ~slot ~depth:budget.lookahead in
    { finish = f; exact = false; states = ctx.states }

(* ------------------------------------------------------------------ *)
(* Snapshots: a completed plan's transposition table, frozen for       *)
(* reuse. The stored informed sets are the private copies the table    *)
(* interned at insertion time and are never mutated afterwards, so a   *)
(* snapshot is safe to publish across domains and to share between    *)
(* chained snapshots. Reusing an entry is sound exactly when the       *)
(* caller's validity predicate certifies its value unchanged — see     *)
(* [plan_snapshot] in the interface for the contract.                  *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_n : int;
  snap_space : Choices.t;
  snap_entries : (int * Bitset.t * int * int) array;  (* (hash, W, key slot, span) *)
  snap_exact : bool;
  snap_states : int;
}

let snapshot_entries s = Array.length s.snap_entries
let snapshot_exact s = s.snap_exact

let snapshot_bindings s =
  Array.to_list (Array.map (fun (_, set, slot, span) -> (set, slot, span)) s.snap_entries)

(* Seeds are exact entries, and an exact entry answers every probe that
   a stored bound or a fresh search would (the comparisons against each
   cap come out the same), so seeds only ever shrink the explored state
   count: a seeded search that exhausts the budget implies the unseeded
   one would too — but not conversely. Near the budget cliff a seeded
   run could stay exact where a cold run degrades, which would break
   schedule equality; the 4x margin keeps warm starts well clear of
   that cliff (churn deltas move the state count by far less). The
   margin is on expanded states, refuted nodes included, which the
   lineage carries in [snap_states]; the entry count would understate
   it, since a snapshot keeps only the exact entries (13 of 44 states
   on a paper deployment at r = 4). *)
let snapshot_reusable s ~space ~budget ~n =
  s.snap_exact && s.snap_space = space && s.snap_n = n
  && s.snap_states <= budget.max_states / 4

(* Raised when a seeded plan hits the budget: rerun without seeds so
   the degraded path is byte-identical to a cold solve's. *)
exception Restart_unseeded

(* Plan construction: walk greedily, replaying the advance the search
   stored with each position, or, where none is stored, choosing it
   with the search's own candidate fold and the same evaluator the top
   level used, so the realised schedule matches the evaluated finish
   time in exact mode. [seeds] pre-populates the memo with still-valid
   entries from a previous solve: every value the search reads is the
   same pure function of (graph, wake schedules, informed set) either
   way, so the constructed schedule is unchanged — only the work to
   re-derive it shrinks. *)
let rec plan_gen model space ~budget ~source ~start ~seeds ~capture =
  try
    Otrace.with_span ~arg:start ~cat:"search" "plan" @@ fun () ->
    let w0 = Model.initial_w model ~source in
    let st = local_istate model ~w:w0 in
    if Istate.lb st = max_int then failwith unreachable_msg;
    let ctx = make_ctx st space budget in
    let n_seeded =
      match seeds with
      | Some (snap, valid)
        when snap.snap_n = Model.n_nodes model && snap.snap_space = space ->
          let k = ref 0 in
          Array.iter
            (fun (h, set, slot, v) ->
              if valid set then begin
                Ttable.add_shared ctx.tt ~h ~slot ~set v;
                incr k
              end)
            snap.snap_entries;
          Metrics.add m_seeded !k;
          !k
      | _ -> 0
    in
    (* Out of budget: a seeded plan restarts unseeded; otherwise count
       the exhaustion and rewind to the position being scored. *)
    let exhausted ~depth =
      if n_seeded > 0 then raise Restart_unseeded;
      Metrics.incr m_exhausted;
      Istate.rewind st ~depth
    in
    (* Root search first: if the budget holds, the plan replays its
       moves and candidate scores reuse its memo; otherwise every score
       degrades to the lookahead policy. *)
    let exact_ok =
      try
        ignore (finish ctx ~slot:start ~limit:max_int);
        true
      with Exhausted ->
        exhausted ~depth:0;
        false
    in
    let degraded = ref false in
    (* Score the already-applied candidate for an advance at slot [t]. *)
    let score ~t ~limit () =
      let fallback () =
        degraded := true;
        lookahead_value ctx ~slot:(t + 1) ~depth:budget.lookahead
      in
      if not exact_ok then fallback ()
      else
        (* Only a position without a stored move is scored, and
           unseeded every position the plan reaches has one. A seeded
           plan can reach a position whose value came from a seed and
           whose siblings were never expanded; if that blows the budget
           it restarts unseeded. *)
        let d = Istate.depth st in
        try finish ctx ~slot:(t + 1) ~limit
        with Exhausted ->
          exhausted ~depth:d;
          fallback ()
    in
    (* An exact, undegraded plan replays the advance the search stored
       with the current position: the first candidate, in the same
       ranked list, whose finish is the least, which is the one the fold
       below would pick against that finish. The root search leaves a
       move at every position an unseeded plan reaches, so such a plan
       colours no position a second time. Positions seeded from a
       snapshot hold no move and take the fold. *)
    let stored lookup t =
      if (not exact_ok) || !degraded then None
      else
        let key = if ctx.sync then 0 else t in
        lookup ctx.tt ~h:(Istate.whash st) ~slot:key ~set:(Istate.w st)
    in
    (* The fold's limit at slot [t]: the exact finish the table holds
       for the current position, so every candidate that cannot match
       it is refuted by a stored bound rather than re-searched. Degraded
       plans score with the lookahead and keep [max_int]. *)
    let step_limit t =
      match stored Ttable.find t with Some span when span > 0 -> t + span - 1 | _ -> max_int
    in
    let fold t =
      let succs =
        Otrace.with_span ~arg:t ~cat:"search" "color-select" (fun () ->
            search_successors ctx ~slot:t)
      in
      let probe = exact_ok && ctx.sync in
      let floor = Bounds.remaining st in
      match best_advance ctx ~t ~limit:(step_limit t) ~floor succs ~probe ~score:(score ~t) with
      | Refuted _ -> failwith "Mcounter.plan: no advance within the limit"
      | Best (_, c) -> c
    in
    let rec loop slot steps =
      if Istate.complete st then List.rev steps
      else
        match Istate.next_active_slot st ~after:(slot - 1) with
        | None -> failwith "Mcounter.plan: empty frontier before completion"
        | Some t ->
            (* The round span covers this slot's selection only — the
               recursion continues outside it, so rounds appear as
               siblings (with nested color-selection) in the trace. *)
            let step =
              Otrace.with_span ~arg:t ~cat:"sched" "round" @@ fun () ->
              let c = match stored Ttable.find_move t with Some c -> c | None -> fold t in
              Istate.apply st ~senders:c;
              let informed = Istate.last_added st in
              { Schedule.slot = t; senders = c; informed }
            in
            loop (t + 1) (step :: steps)
    in
    let steps = loop start [] in
    let schedule = Schedule.make ~n_nodes:(Model.n_nodes model) ~source ~start steps in
    let snap =
      if not capture then None
      else begin
        let acc = ref [] in
        Ttable.iter
          (fun ~h ~slot ~set ~value ->
            if value > 0 then acc := (h, set, slot, value) :: !acc)
          ctx.tt;
        Some
          {
            snap_n = Model.n_nodes model;
            snap_space = space;
            snap_entries = Array.of_list !acc;
            snap_exact = exact_ok && not !degraded;
            (* Chained repairs carry the base's state count forward so
               the reuse margin reflects the whole lineage, not just the
               (small) incremental re-exploration. *)
            snap_states =
              (ctx.states + match seeds with Some (s, _) -> s.snap_states | None -> 0);
          }
      end
    in
    (schedule, snap)
  with Restart_unseeded -> plan_gen model space ~budget ~source ~start ~seeds:None ~capture

let plan model space ~budget ~source ~start =
  fst (plan_gen model space ~budget ~source ~start ~seeds:None ~capture:false)

let plan_snapshot ?seeds model space ~budget ~source ~start =
  match plan_gen model space ~budget ~source ~start ~seeds ~capture:true with
  | schedule, Some snap -> (schedule, snap)
  | _, None -> assert false
