(* Incremental search state for the M-counter (paper Eq. 4–8).

   The branch-and-bound search over informed sets used to rebuild, for
   every candidate advance, the frontier (a scan of [W] with per-node
   receiver counts), the conflict structure (a fresh complement bitset),
   and the hop lower bound (a full multi-source BFS). This module keeps
   all of that as mutable scratch updated in O(affected nodes) by
   [apply], and restored exactly by [undo] from a watermarked log:

   - [w] / [ubar]: the informed set and its complement;
   - [whash]: [Bitset.hash w], maintained via [Bitset.hash_flip] so memo
     probes never re-hash the full word array;
   - [uncov.(u)]: |N(u) ∩ W̄| — zero iff [u] has nothing left to cover,
     so the frontier is {u ∈ W : uncov u > 0} and greedy-colouring
     receiver counts come for free;
   - [dist.(v)]: hop distance from [W] (0 on [W] itself). Informing A
     only ever shrinks distances, by a BFS relaxation seeded at A, so a
     distance histogram [dcnt] plus [dmax]/[unreach] give the hop lower
     bound without re-running the BFS from scratch.

   Each [apply] pushes one frame (watermarks into the shared logs plus
   the saved [dmax]); [undo] pops a frame by replaying the logs in
   reverse. The per-frame dist log records (node, old distance) pairs;
   their informed/uninformed status at undo time equals their status
   when logged, because within a frame every inform precedes every
   relaxation and frames unwind LIFO. *)

module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph
module Coloring = Mlbs_graph.Coloring
module Metrics = Mlbs_obs.Metrics
module Interference = Mlbs_phy.Interference

(* Hot-path probes: one disabled-registry branch each (see lib/obs). *)
let m_apply = Metrics.counter "istate/apply"
let m_undo = Metrics.counter "istate/undo"
let m_probe = Metrics.counter "istate/probe"
let m_color = Metrics.counter "search/color_selections"

type t = {
  cap : int;
  mutable model : Model.t option;
  w : Bitset.t;
  ubar : Bitset.t;
  mutable whash : int;
  mutable ninf : int;  (* |W| *)
  uncov : int array;
  dist : int array;
  dcnt : int array;  (* per distance d >= 1, # uninformed reachable nodes at d *)
  mutable dmax : int;
  mutable unreach : int;  (* # uninformed nodes with dist = max_int *)
  queue : int array;  (* BFS ring, each node enqueued at most once per apply *)
  (* Watermarked undo logs, shared by all frames. *)
  mutable added : int array;
  mutable n_added : int;
  mutable dlog_node : int array;
  mutable dlog_dist : int array;
  mutable n_dlog : int;
  mutable f_added : int array;  (* per frame: added watermark *)
  mutable f_dlog : int array;  (* per frame: dist-log watermark *)
  mutable f_dmax : int array;  (* per frame: dmax before the apply *)
  mutable n_frames : int;
  (* Non-mutating child-probe scratch: per-distance layer bitsets of
     the current position, built lazily once per state and shared by
     every probe at it, plus two wave-front scratch sets. *)
  lay : Bitset.t array;
  mutable lay_max : int;  (* layers filled by the last build *)
  mutable lay_valid : bool;
  pfront : Bitset.t;
  pnext : Bitset.t;
  pblocked : Bitset.t;  (* greedy-colouring scratch: class blocked zone *)
  (* Interference-backend class builder, created lazily on the first
     colouring under a non-UDG model (reset drops it with the model). *)
  mutable phy_cls : Interference.classifier option;
}

let create cap =
  if cap < 0 then invalid_arg "Istate.create: negative capacity";
  let sz = max 1 cap in
  {
    cap;
    model = None;
    w = Bitset.create cap;
    ubar = Bitset.create cap;
    whash = 0;
    ninf = 0;
    uncov = Array.make sz 0;
    dist = Array.make sz max_int;
    dcnt = Array.make (sz + 1) 0;
    dmax = 0;
    unreach = 0;
    queue = Array.make sz 0;
    added = Array.make sz 0;
    n_added = 0;
    dlog_node = Array.make sz 0;
    dlog_dist = Array.make sz 0;
    n_dlog = 0;
    f_added = Array.make 16 0;
    f_dlog = Array.make 16 0;
    f_dmax = Array.make 16 0;
    n_frames = 0;
    lay = Array.init (sz + 1) (fun _ -> Bitset.create cap);
    lay_max = 0;
    lay_valid = false;
    pfront = Bitset.create cap;
    pnext = Bitset.create cap;
    pblocked = Bitset.create cap;
    phy_cls = None;
  }

let capacity st = st.cap

let model st =
  match st.model with
  | Some m -> m
  | None -> invalid_arg "Istate: not reset to a model yet"

let graph st = Model.graph (model st)

(* -------------------------- log plumbing --------------------------- *)

let grow a used = if used < Array.length a then a else Array.append a (Array.make (Array.length a) 0)

let push_added st v =
  st.added <- grow st.added st.n_added;
  st.added.(st.n_added) <- v;
  st.n_added <- st.n_added + 1

let push_dlog st v d =
  st.dlog_node <- grow st.dlog_node st.n_dlog;
  st.dlog_dist <- grow st.dlog_dist st.n_dlog;
  st.dlog_node.(st.n_dlog) <- v;
  st.dlog_dist.(st.n_dlog) <- d;
  st.n_dlog <- st.n_dlog + 1

let push_frame st =
  st.f_added <- grow st.f_added st.n_frames;
  st.f_dlog <- grow st.f_dlog st.n_frames;
  st.f_dmax <- grow st.f_dmax st.n_frames;
  st.f_added.(st.n_frames) <- st.n_added;
  st.f_dlog.(st.n_frames) <- st.n_dlog;
  st.f_dmax.(st.n_frames) <- st.dmax;
  st.n_frames <- st.n_frames + 1

(* ------------------------------ reset ------------------------------ *)

let reset st m ~w =
  let n = Model.n_nodes m in
  if n <> st.cap then invalid_arg "Istate.reset: model size does not match capacity";
  if Bitset.cap w <> st.cap then invalid_arg "Istate.reset: informed set capacity mismatch";
  st.model <- Some m;
  st.lay_valid <- false;
  st.phy_cls <- None;
  Bitset.assign ~into:st.w w;
  Bitset.complement_into ~into:st.ubar w;
  st.whash <- Bitset.hash st.w;
  st.ninf <- Bitset.cardinal st.w;
  st.n_added <- 0;
  st.n_dlog <- 0;
  st.n_frames <- 0;
  let g = Model.graph m in
  (* Full multi-source BFS from W, once per reset. *)
  Array.fill st.dist 0 (max 1 n) max_int;
  let tail = ref 0 in
  Bitset.iter
    (fun s ->
      st.dist.(s) <- 0;
      st.queue.(!tail) <- s;
      incr tail)
    st.w;
  let head = ref 0 in
  while !head < !tail do
    let u = st.queue.(!head) in
    incr head;
    let du = st.dist.(u) + 1 in
    Graph.iter_neighbors g u ~f:(fun v ->
        if st.dist.(v) = max_int then begin
          st.dist.(v) <- du;
          st.queue.(!tail) <- v;
          incr tail
        end)
  done;
  Array.fill st.dcnt 0 (n + 1) 0;
  st.dmax <- 0;
  st.unreach <- 0;
  for v = 0 to n - 1 do
    st.uncov.(v) <-
      Graph.fold_neighbors g v ~init:0 ~f:(fun acc x ->
          if Bitset.mem st.w x then acc else acc + 1);
    if not (Bitset.mem st.w v) then begin
      let d = st.dist.(v) in
      if d = max_int then st.unreach <- st.unreach + 1
      else begin
        st.dcnt.(d) <- st.dcnt.(d) + 1;
        if d > st.dmax then st.dmax <- d
      end
    end
  done

(* --------------------------- apply / undo -------------------------- *)

let apply st ~senders =
  Metrics.incr m_apply;
  let g = graph st in
  st.lay_valid <- false;
  push_frame st;
  let base_added = st.n_added in
  (* Phase 1: inform every uninformed neighbour of a sender. *)
  List.iter
    (fun u ->
      if not (Bitset.mem st.w u) then
        invalid_arg (Printf.sprintf "Istate.apply: sender %d not informed" u);
      Graph.iter_neighbors g u ~f:(fun v ->
          if not (Bitset.mem st.w v) then begin
            st.whash <- Bitset.hash_flip st.w v st.whash;
            Bitset.add st.w v;
            Bitset.remove st.ubar v;
            st.ninf <- st.ninf + 1;
            let d = st.dist.(v) in
            if d = max_int then st.unreach <- st.unreach - 1
            else st.dcnt.(d) <- st.dcnt.(d) - 1;
            Graph.iter_neighbors g v ~f:(fun x -> st.uncov.(x) <- st.uncov.(x) - 1);
            push_added st v
          end))
    senders;
  (* Phase 2: distances can only shrink — BFS relaxation seeded at the
     newly informed set, logging every overwritten distance. *)
  let tail = ref 0 in
  for i = base_added to st.n_added - 1 do
    let v = st.added.(i) in
    if st.dist.(v) <> 0 then begin
      push_dlog st v st.dist.(v);
      st.dist.(v) <- 0
    end;
    st.queue.(!tail) <- v;
    incr tail
  done;
  let head = ref 0 in
  while !head < !tail do
    let x = st.queue.(!head) in
    incr head;
    let dd = st.dist.(x) + 1 in
    Graph.iter_neighbors g x ~f:(fun y ->
        if st.dist.(y) > dd then begin
          push_dlog st y st.dist.(y);
          (* Only uninformed nodes sit in the histogram; every node
             relaxed here is uninformed (informed nodes are at 0). *)
          if st.dist.(y) = max_int then st.unreach <- st.unreach - 1
          else st.dcnt.(st.dist.(y)) <- st.dcnt.(st.dist.(y)) - 1;
          st.dcnt.(dd) <- st.dcnt.(dd) + 1;
          st.dist.(y) <- dd;
          st.queue.(!tail) <- y;
          incr tail
        end)
  done;
  if st.ninf = st.cap then st.dmax <- 0
  else begin
    let d = ref st.dmax in
    while !d > 0 && st.dcnt.(!d) = 0 do
      decr d
    done;
    st.dmax <- !d
  end

let undo st =
  Metrics.incr m_undo;
  if st.n_frames = 0 then invalid_arg "Istate.undo: no frame to pop";
  let g = graph st in
  st.lay_valid <- false;
  st.n_frames <- st.n_frames - 1;
  let ba = st.f_added.(st.n_frames)
  and bd = st.f_dlog.(st.n_frames)
  and saved_dmax = st.f_dmax.(st.n_frames) in
  for i = st.n_dlog - 1 downto bd do
    let y = st.dlog_node.(i) and old = st.dlog_dist.(i) in
    if Bitset.mem st.ubar y then begin
      st.dcnt.(st.dist.(y)) <- st.dcnt.(st.dist.(y)) - 1;
      if old = max_int then st.unreach <- st.unreach + 1
      else st.dcnt.(old) <- st.dcnt.(old) + 1
    end;
    st.dist.(y) <- old
  done;
  st.n_dlog <- bd;
  for i = st.n_added - 1 downto ba do
    let v = st.added.(i) in
    st.whash <- Bitset.hash_flip st.w v st.whash;
    Bitset.remove st.w v;
    Bitset.add st.ubar v;
    st.ninf <- st.ninf - 1;
    let d = st.dist.(v) in
    if d = max_int then st.unreach <- st.unreach + 1
    else st.dcnt.(d) <- st.dcnt.(d) + 1;
    Graph.iter_neighbors g v ~f:(fun x -> st.uncov.(x) <- st.uncov.(x) + 1)
  done;
  st.n_added <- ba;
  st.dmax <- saved_dmax

let depth st = st.n_frames

let rewind st ~depth =
  if depth < 0 then invalid_arg "Istate.rewind: negative depth";
  while st.n_frames > depth do
    undo st
  done

let last_added st =
  if st.n_frames = 0 then invalid_arg "Istate.last_added: no frame";
  let base = st.f_added.(st.n_frames - 1) in
  let rec collect i acc = if i < base then acc else collect (i - 1) (st.added.(i) :: acc) in
  collect (st.n_added - 1) []

(* ---------------------------- queries ------------------------------ *)

let w st = st.w
let ubar st = st.ubar
let whash st = st.whash
let n_informed st = st.ninf
let complete st = st.ninf = st.cap
let uncov st u = st.uncov.(u)

let lb st = if complete st then 0 else if st.unreach > 0 then max_int else st.dmax

(* [probe_child] answers the two ranking queries the search asks of
   every candidate advance — coverage and the child's hop lower bound —
   without mutating anything, so ranking candidates no longer costs an
   apply/undo pair each. It leans on facts the apply relaxation
   guarantees: every newly informed node sits at distance 1 from [W],
   hence no distance drops by more than one per advance, [unreach] is
   invariant, and the dropped-to distance is always [old - 1]. The
   child's [dmax] is therefore [dmax - 1] exactly when every uninformed
   node at distance [dmax] is reached by the improvement cone — the BFS
   over nodes whose distance shrinks, stamped per probe so the scratch
   never needs clearing. Nodes already at [dmax] cannot relax anyone
   further (no distance exceeds [dmax]), so they are counted but not
   expanded, and the wave stops early once every [dmax] node dropped. *)
(* Per-distance layers of the current position, built lazily from the
   dist array on the first probe at a state (apply/undo invalidate).
   Every node at distance >= 1 is uninformed, so the layers partition
   the reachable uninformed set and the top layer is exactly the set
   the lower bound hangs on. *)
let ensure_layers st =
  if not st.lay_valid then begin
    for d = 1 to st.lay_max do
      Bitset.clear st.lay.(d)
    done;
    for v = 0 to st.cap - 1 do
      let d = st.dist.(v) in
      if d >= 1 && d <> max_int then Bitset.add st.lay.(d) v
    done;
    st.lay_max <- st.dmax;
    st.lay_valid <- true
  end

let layer st ~d =
  if d < 1 || d > st.dmax then
    invalid_arg (Printf.sprintf "Istate.layer: distance %d out of [1,%d]" d st.dmax);
  ensure_layers st;
  st.lay.(d)

(* The wave of shrinking distances, bit-parallel: every newly informed
   node sits at distance 1, so distances drop by at most one per
   advance, the drop is always to [old - 1], and [unreach] is
   invariant. Cone layer j — the distance-(j+1) nodes that drop — is
   [N(layer j-1) ∩ lay.(j+1)], seeded by the advance's coverage set.
   The child's bound is [dmax - 1] exactly when the final cone layer
   reaches the whole top layer. *)
let probe_seeded st ~seeds =
  Metrics.incr m_probe;
  let cov = Bitset.cardinal seeds in
  let lb =
    if st.ninf + cov = st.cap then 0
    else if st.unreach > 0 then max_int
    else if st.dmax <= 1 then st.dmax
    else begin
      ensure_layers st;
      let g = graph st in
      Bitset.assign ~into:st.pfront seeds;
      let j = ref 1 and dead = ref false in
      while (not !dead) && !j <= st.dmax - 1 do
        Bitset.clear st.pnext;
        Bitset.iter
          (fun x -> Bitset.union_into ~into:st.pnext (Graph.neighbor_set g x))
          st.pfront;
        Bitset.inter_into ~into:st.pnext st.lay.(!j + 1);
        if Bitset.is_empty st.pnext then dead := true
        else begin
          Bitset.assign ~into:st.pfront st.pnext;
          incr j
        end
      done;
      if (not !dead) && Bitset.equal st.pfront st.lay.(st.dmax) then st.dmax - 1
      else st.dmax
    end
  in
  (lb, cov)

let coverage st ~senders =
  let g = graph st in
  let c = Bitset.create st.cap in
  List.iter
    (fun u ->
      if not (Bitset.mem st.w u) then
        invalid_arg (Printf.sprintf "Istate.coverage: sender %d not informed" u);
      Bitset.union_inter_into ~into:c (Graph.neighbor_set g u) st.ubar)
    senders;
  c

let probe_child st ~senders = probe_seeded st ~seeds:(coverage st ~senders)

let candidates st ~slot =
  let m = model st in
  List.rev
    (Bitset.fold
       (fun u acc -> if st.uncov.(u) > 0 && Model.awake m u ~slot then u :: acc else acc)
       st.w [])

(* Same classes as [Coloring.greedy] over the paper's conflict
   predicate (receiver count descending, id ascending, prefix-greedy),
   but conflict-with-class collapses to one intersection test: item [v]
   conflicts with some class member [c] — N(c) ∩ N(v) ∩ W̄ ≠ ∅ — iff
   N(v) meets the running union of the members' uninformed coverage
   zones, kept in a scratch bitset. O(|class|) pair tests become one. *)
let greedy_classes_cov st ~slot =
  Metrics.incr m_color;
  let m = model st in
  let counts =
    Bitset.fold
      (fun u acc ->
        if st.uncov.(u) > 0 && Model.awake m u ~slot then (u, st.uncov.(u)) :: acc
        else acc)
      st.w []
  in
  match counts with
  | [] -> []
  | _ ->
      let g = graph st in
      (* The order (count desc, id asc) is total — ids are distinct — so
         sorting the unreversed fold output lands on the same list. *)
      let sorted =
        List.stable_sort
          (fun (u, cu) (v, cv) ->
            if cu <> cv then (if cu > cv then -1 else 1)
            else if u < v then -1
            else if u > v then 1
            else 0)
          counts
      in
      let blocked = st.pblocked in
      let rec assign remaining acc =
        match remaining with
        | [] -> List.rev acc
        | _ ->
            Bitset.clear blocked;
            let cls, rest =
              List.fold_left
                (fun (cls, rest) ((u, _) as item) ->
                  if Bitset.intersects (Graph.neighbor_set g u) blocked then
                    (cls, item :: rest)
                  else begin
                    Bitset.union_inter_into ~into:blocked (Graph.neighbor_set g u)
                      st.ubar;
                    (u :: cls, rest)
                  end)
                ([], []) remaining
            in
            (* At this point [blocked] is exactly the set of nodes the
               class informs — the search reuses it as probe seeds and
               child memo keys, so hand out a copy alongside. *)
            assign (List.rev rest) ((List.rev cls, Bitset.copy blocked) :: acc)
      in
      (* The backend's class builder replaces the blocked-set test when
         admission is feasibility-based (SINR); under multi-channel the
         UDG classes merge k at a time into (slot, channel)
         super-classes, coverage unioned, concatenated-class sender
         order preserved for first-fit channel reconstruction. *)
      let rec assign_phy cls remaining acc =
        match remaining with
        | [] -> List.rev acc
        | _ ->
            Interference.start_class cls ~uninformed:st.ubar;
            let cl, rest =
              List.fold_left
                (fun (cl, rest) ((u, _) as item) ->
                  if Interference.admits cls u then begin
                    Interference.accept cls u;
                    (u :: cl, rest)
                  end
                  else (cl, item :: rest))
                ([], []) remaining
            in
            assign_phy cls (List.rev rest)
              ((List.rev cl, Bitset.copy (Interference.class_coverage cls)) :: acc)
      in
      let rec chunk_cov k = function
        | [] -> []
        | rows ->
            let rec take i acc rest =
              if i = 0 then (List.rev acc, rest)
              else
                match rest with
                | [] -> (List.rev acc, [])
                | r :: tl -> take (i - 1) (r :: acc) tl
            in
            let head, tl = take k [] rows in
            let senders = List.concat_map fst head in
            let cov =
              match head with
              | (_, c0) :: more ->
                  List.iter (fun (_, c) -> Bitset.union_into ~into:c0 c) more;
                  c0
              | [] -> assert false
            in
            (senders, cov) :: chunk_cov k tl
      in
      (match Model.phy_instance m with
      | Interference.I_udg _ -> assign sorted []
      | Interference.I_mc { k; _ } ->
          let rows = assign sorted [] in
          if k > 1 then chunk_cov k rows else rows
      | Interference.I_sinr _ ->
          let cls =
            match st.phy_cls with
            | Some c -> c
            | None ->
                let c = Interference.classifier (Model.phy_instance m) in
                st.phy_cls <- Some c;
                c
          in
          assign_phy cls sorted [])

let greedy_classes st ~slot = List.map fst (greedy_classes_cov st ~slot)

let next_active_slot st ~after =
  let m = model st in
  match Model.system m with
  | Model.Sync ->
      (* Some informed node has an uninformed neighbour iff some
         uninformed node is reachable at all: BFS layers are contiguous,
         so [dmax >= 1] implies an uninformed node at distance 1. *)
      if st.ninf < st.cap && st.dmax >= 1 then Some (after + 1) else None
  | Model.Async sched ->
      let earliest = ref max_int in
      Bitset.iter
        (fun u ->
          if st.uncov.(u) > 0 then
            earliest := min !earliest (Mlbs_dutycycle.Wake_schedule.next_wake sched u ~after))
        st.w;
      if !earliest = max_int then None else Some !earliest
