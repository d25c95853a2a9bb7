(* The one frontier state (paper Eq. 1–8): the M-counter search, the
   improver and every off-line planner walk it.

   A position is the informed set [W], its complement, the carried
   [Bitset.hash W] and the hop-distance field from [W] kept as layer
   bitsets: [lay.(d)] is L_d, the uninformed nodes at distance [d], for
   [1 <= d <= dmax], and every layer above [dmax] is empty. [unreach]
   counts the uninformed nodes no layer holds; it is fixed at [reset],
   since a node unreachable from W is never informed. Every query is a
   word loop over these sets and the graph's neighbour rows.

   [apply] informs A = N(senders) ∩ W̄, which lies inside L_1. A newly
   informed node sits at distance 0, so no distance drops by more than
   one per advance, and one that drops goes to [old - 1]: the nodes
   that drop form the cone D_1 = A, D_j = N(D_{j-1}) ∩ L_j (a node of
   L_j has no neighbour below L_{j-1}, so only a dropped one can pull
   it down), and each D_j moves from L_j to L_{j-1}, L_0 being W. The
   walk stops at the first empty D_j. The frame logs the [whash],
   [ninf] and [dmax] it replaces, then the words of D_1 .. D_k; [undo]
   moves the sets back in reverse. [dmax] drops by at most one per
   apply: when the top layer empties, its cone moved into the layer
   below. *)

module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph
module Metrics = Mlbs_obs.Metrics
module Interference = Mlbs_phy.Interference

(* Hot-path probes: one disabled-registry branch each (see lib/obs). *)
let m_apply = Metrics.counter "istate/apply"
let m_undo = Metrics.counter "istate/undo"
let m_probe = Metrics.counter "istate/probe"
let m_color = Metrics.counter "search/color_selections"

type t = {
  cap : int;
  nw : int;  (* words per set *)
  mutable model : Model.t option;
  mutable rows : int array array;  (* the words of N(u), per node *)
  w : Bitset.t;
  ubar : Bitset.t;
  mutable whash : int;
  mutable ninf : int;  (* |W| *)
  lay : Bitset.t array;  (* lay.(d) = L_d for 1 <= d <= dmax, empty above *)
  mutable dmax : int;
  mutable unreach : int;  (* # uninformed nodes in no layer *)
  (* Undo log: per frame a header [previous frame; whash; ninf; dmax],
     then the cone D_1 .. D_k, [nw] words a set. *)
  mutable log : int array;
  mutable n_log : int;
  mutable frame : int;  (* the top frame's header offset, -1 when none *)
  mutable n_frames : int;
  (* The frontier W ∩ N(L_1), cached per position. *)
  front : Bitset.t;
  mutable front_ok : bool;
  (* Scratch: the probe's wave front and next layer, the BFS's unseen
     set, the apply's coverage and [last_added]'s decode. *)
  pfront : Bitset.t;
  pnext : Bitset.t;
  (* Class-builder scratch for the bound model, created lazily on the
     first colouring (reset drops it with the model). *)
  mutable cls : Interference.classifier option;
}

let create cap =
  if cap < 0 then invalid_arg "Istate.create: negative capacity";
  let set () = Bitset.create cap in
  let nw = Array.length (Bitset.words (set ())) in
  {
    cap;
    nw;
    model = None;
    rows = [||];
    w = set ();
    ubar = set ();
    whash = 0;
    ninf = 0;
    lay = Array.init (max 1 cap + 1) (fun _ -> set ());
    dmax = 0;
    unreach = 0;
    log = Array.make (16 * (nw + 4)) 0;
    n_log = 0;
    frame = -1;
    n_frames = 0;
    front = set ();
    front_ok = false;
    pfront = set ();
    pnext = set ();
    cls = None;
  }

let capacity st = st.cap

let model st =
  match st.model with
  | Some m -> m
  | None -> invalid_arg "Istate: not reset to a model yet"

(* ---------------------------- word loops --------------------------- *)

(* SWAR popcount of a 63-bit word: 2-, 4- then 8-bit field sums, and
   the byte sums gathered in the top byte (a count fits its 7 bits). *)
let popcount x =
  let x = x - ((x lsr 1) land (0x1555555555555555 lor (1 lsl 62))) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

(* [dst.(doff ..)] := N(src.(soff ..)) ∩ mask, one set of [nw] words
   each: the union of every member's neighbour row, then the mask.
   True iff the result is non-empty. [src] and [dst] may be one array
   when the two ranges do not overlap. *)
let step_into st src soff dst doff mask =
  let nw = st.nw in
  Array.fill dst doff nw 0;
  for i = 0 to nw - 1 do
    let word = ref src.(soff + i) in
    let base = i * Bitset.bits_per_word in
    while !word <> 0 do
      let lsb = !word land - !word in
      let r = st.rows.(base + Bitset.bit_index lsb) in
      for j = 0 to nw - 1 do
        dst.(doff + j) <- dst.(doff + j) lor r.(j)
      done;
      word := !word lxor lsb
    done
  done;
  let any = ref 0 in
  for j = 0 to nw - 1 do
    let x = dst.(doff + j) land mask.(j) in
    dst.(doff + j) <- x;
    any := !any lor x
  done;
  !any <> 0

let step st ~into src mask = step_into st (Bitset.words src) 0 (Bitset.words into) 0 (Bitset.words mask)

(* ------------------------------ reset ------------------------------ *)

let reset st m ~w =
  let n = Model.n_nodes m in
  if n <> st.cap then invalid_arg "Istate.reset: model size does not match capacity";
  if Bitset.cap w <> st.cap then invalid_arg "Istate.reset: informed set capacity mismatch";
  st.model <- Some m;
  st.cls <- None;
  st.rows <- Array.map Bitset.words (Graph.neighbor_sets (Model.graph m));
  Bitset.assign ~into:st.w w;
  Bitset.complement_into ~into:st.ubar w;
  st.whash <- Bitset.hash st.w;
  st.ninf <- Bitset.cardinal st.w;
  st.n_log <- 0;
  st.frame <- -1;
  st.n_frames <- 0;
  st.front_ok <- false;
  for d = 1 to st.dmax do
    Bitset.clear st.lay.(d)
  done;
  (* Layered BFS from W, once per reset: L_{d+1} is N(L_d) less W and
     every earlier layer ([pfront] holds the uninformed nodes no layer
     has taken yet). *)
  let unseen = st.pfront in
  Bitset.assign ~into:unseen st.ubar;
  let d = ref 0 in
  while step st ~into:st.lay.(!d + 1) (if !d = 0 then st.w else st.lay.(!d)) unseen do
    incr d;
    let u = Bitset.words unseen and l = Bitset.words st.lay.(!d) in
    for j = 0 to st.nw - 1 do
      u.(j) <- u.(j) land lnot l.(j)
    done
  done;
  st.dmax <- !d;
  st.unreach <- Bitset.cardinal unseen

(* --------------------------- apply / undo -------------------------- *)

(* The log offset of [k] more words, growing the log when full. *)
let reserve st k =
  let off = st.n_log in
  if off + k > Array.length st.log then begin
    let bigger = Array.make ((2 * Array.length st.log) + k) 0 in
    Array.blit st.log 0 bigger 0 off;
    st.log <- bigger
  end;
  st.n_log <- off + k;
  off

let push_frame st =
  let off = reserve st 4 in
  st.log.(off) <- st.frame;
  st.log.(off + 1) <- st.whash;
  st.log.(off + 2) <- st.ninf;
  st.log.(off + 3) <- st.dmax;
  st.frame <- off;
  st.n_frames <- st.n_frames + 1

let apply st ~senders =
  Metrics.incr m_apply;
  List.iter
    (fun u ->
      if not (Bitset.mem st.w u) then
        invalid_arg (Printf.sprintf "Istate.apply: sender %d not informed" u))
    senders;
  let nw = st.nw in
  let a = Bitset.words st.pnext and ubar = Bitset.words st.ubar in
  Array.fill a 0 nw 0;
  List.iter
    (fun u ->
      let r = st.rows.(u) in
      for j = 0 to nw - 1 do
        a.(j) <- a.(j) lor (r.(j) land ubar.(j))
      done)
    senders;
  push_frame st;
  st.front_ok <- false;
  st.whash <- Bitset.hash_union st.w st.pnext st.whash;
  let off = reserve st nw in
  Array.blit a 0 st.log off nw;
  (* D_1 = A leaves L_1 for W. *)
  let w = Bitset.words st.w and l1 = Bitset.words st.lay.(1) in
  let k = ref 0 in
  for j = 0 to nw - 1 do
    let x = a.(j) in
    w.(j) <- w.(j) lor x;
    ubar.(j) <- ubar.(j) land lnot x;
    l1.(j) <- l1.(j) land lnot x;
    k := !k + popcount x
  done;
  st.ninf <- st.ninf + !k;
  (* The cone: D_d = N(D_{d-1}) ∩ L_d moves from L_d to L_{d-1}. *)
  let rec cone d prev =
    if d <= st.dmax then begin
      let off = reserve st nw in
      if step_into st st.log prev st.log off (Bitset.words st.lay.(d)) then begin
        let hi = Bitset.words st.lay.(d) and lo = Bitset.words st.lay.(d - 1) in
        for j = 0 to nw - 1 do
          let x = st.log.(off + j) in
          hi.(j) <- hi.(j) land lnot x;
          lo.(j) <- lo.(j) lor x
        done;
        cone (d + 1) off
      end
      else st.n_log <- off
    end
  in
  if !k > 0 then cone 2 off;
  if st.dmax >= 1 && Bitset.is_empty st.lay.(st.dmax) then st.dmax <- st.dmax - 1

let undo st =
  Metrics.incr m_undo;
  if st.n_frames = 0 then invalid_arg "Istate.undo: no frame to pop";
  let f = st.frame and nw = st.nw and log = st.log in
  let base = f + 4 in
  (* D_k .. D_2 move back up one layer, then D_1 leaves W for L_1. *)
  let off = ref (st.n_log - nw) and d = ref ((st.n_log - base) / nw) in
  while !d >= 2 do
    let hi = Bitset.words st.lay.(!d) and lo = Bitset.words st.lay.(!d - 1) in
    for j = 0 to nw - 1 do
      let x = log.(!off + j) in
      lo.(j) <- lo.(j) land lnot x;
      hi.(j) <- hi.(j) lor x
    done;
    off := !off - nw;
    decr d
  done;
  let w = Bitset.words st.w and ubar = Bitset.words st.ubar and l1 = Bitset.words st.lay.(1) in
  for j = 0 to nw - 1 do
    let x = log.(base + j) in
    w.(j) <- w.(j) land lnot x;
    ubar.(j) <- ubar.(j) lor x;
    l1.(j) <- l1.(j) lor x
  done;
  st.frame <- log.(f);
  st.whash <- log.(f + 1);
  st.ninf <- log.(f + 2);
  st.dmax <- log.(f + 3);
  st.n_log <- f;
  st.n_frames <- st.n_frames - 1;
  st.front_ok <- false

let depth st = st.n_frames

let rewind st ~depth =
  if depth < 0 then invalid_arg "Istate.rewind: negative depth";
  while st.n_frames > depth do
    undo st
  done

(* The frame's logged D_1, read through the apply's scratch set. *)
let last_added st =
  if st.n_frames = 0 then invalid_arg "Istate.last_added: no frame";
  Array.blit st.log (st.frame + 4) (Bitset.words st.pnext) 0 st.nw;
  Bitset.elements st.pnext

(* ---------------------------- queries ------------------------------ *)

let w st = st.w
let ubar st = st.ubar
let whash st = st.whash
let n_informed st = st.ninf
let complete st = st.ninf = st.cap

let uncov st u =
  let r = st.rows.(u) and ubar = Bitset.words st.ubar in
  let c = ref 0 in
  for j = 0 to st.nw - 1 do
    c := !c + popcount (r.(j) land ubar.(j))
  done;
  !c

let lb st = if complete st then 0 else if st.unreach > 0 then max_int else st.dmax

let layer st ~d =
  if d < 1 || d > st.dmax then
    invalid_arg (Printf.sprintf "Istate.layer: distance %d out of [1,%d]" d st.dmax);
  st.lay.(d)

(* The informed nodes with an uninformed neighbour: every uninformed
   neighbour of W lies in L_1. *)
let frontier st =
  if not st.front_ok then begin
    ignore (step st ~into:st.front st.lay.(1) st.w);
    st.front_ok <- true
  end;
  st.front

(* [probe_child] answers the two ranking queries the search asks of
   every candidate advance — coverage and the child's hop lower bound —
   without mutating anything, so ranking candidates costs no apply/undo
   pair. The child's [dmax] is [dmax - 1] exactly when the advance's
   cone reaches the whole top layer; nodes at [dmax] relax nobody
   further, so the walk stops there, or at the first empty cone
   layer. *)
let probe_seeded st ~seeds =
  Metrics.incr m_probe;
  let cov = Bitset.cardinal seeds in
  let lb =
    if st.ninf + cov = st.cap then 0
    else if st.unreach > 0 then max_int
    else if st.dmax <= 1 then st.dmax
    else begin
      (* [cone] is cone layer [j]; the next one goes to [next], and the
         two scratch sets take turns after the seeds. *)
      let rec reaches_top j cone next =
        if j = st.dmax then Bitset.equal cone st.lay.(j)
        else
          step st ~into:next cone st.lay.(j + 1)
          && reaches_top (j + 1) next (if cone == seeds then st.pfront else cone)
      in
      if reaches_top 1 seeds st.pnext then st.dmax - 1 else st.dmax
    end
  in
  (lb, cov)

let coverage st ~senders =
  let g = Model.graph (model st) in
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
    (Bitset.fold (fun u acc -> if Model.awake m u ~slot then u :: acc else acc) (frontier st) [])

(* Algorithm 1 at the current position: the awake frontier in
   {!Interference.visit_order} of its receiver counts, coloured against
   the live [ubar] with one classifier cached per reset; runs of k
   classes then merge into one (slot, channel) class. *)
let visit_order st ~slot =
  let m = model st in
  Interference.visit_order
    (Bitset.fold
       (fun u acc -> if Model.awake m u ~slot then (u, uncov st u) :: acc else acc)
       (frontier st) [])

let classifier st =
  match st.cls with
  | Some c -> c
  | None ->
      let c = Interference.classifier (Model.phy_instance (model st)) in
      st.cls <- Some c;
      c

let channels st = Interference.channels (Model.phy (model st))

let greedy_classes_cov st ~slot =
  Metrics.incr m_color;
  Interference.classes_cov (classifier st) ~uninformed:st.ubar (visit_order st ~slot)
  |> Interference.merge_channels (channels st)

let greedy_classes st ~slot =
  Interference.classes (classifier st) ~uninformed:st.ubar (visit_order st ~slot)
  |> Interference.merge_classes (channels st)

let next_active_slot st ~after =
  let m = model st in
  match Model.system m with
  | Model.Sync ->
      (* Some informed node has an uninformed neighbour iff some
         uninformed node is reachable at all: the layers are contiguous,
         so [dmax >= 1] implies a non-empty L_1. *)
      if st.ninf < st.cap && st.dmax >= 1 then Some (after + 1) else None
  | Model.Async sched ->
      (* No wake comes before [after + 1]: stop at the first node there. *)
      let earliest = ref max_int in
      ignore
        (Bitset.for_all
           (fun u ->
             earliest := min !earliest (Mlbs_dutycycle.Wake_schedule.next_wake sched u ~after);
             !earliest > after + 1)
           (frontier st));
      if !earliest = max_int then None else Some !earliest
