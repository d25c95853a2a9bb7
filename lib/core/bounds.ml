module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph

let opt_sync ~d = d + 2

let opt_async ~d ~rate = 2 * rate * (d + 2)

let jiao17 ~d ~rate = 17 * (2 * rate) * d

let chen26 ~d = 26 * d

let source_depth model ~source =
  Mlbs_graph.Bfs.eccentricity (Model.graph model) ~source

(* ------------------------------------------------------------------ *)
(* Search-side admissible lower bounds on the remaining advance count, *)
(* read straight off the Istate's maintained distance layers.          *)
(*                                                                     *)
(* Eccentricity: every advance informs only distance-1 nodes, so no    *)
(* distance drops by more than one per advance and a node at distance  *)
(* d needs >= d further advances — [Istate.lb] carries this for free.  *)
(*                                                                     *)
(* Packing refutation: suppose exactly d = dmax advances sufficed.     *)
(* A node at distance d can be informed at advance k only if its       *)
(* distance reached 1 by advance k-1, i.e. k >= d — so the whole top   *)
(* layer L_d is informed in the single final advance (sync round or    *)
(* async slot). Its senders are informed before that advance and       *)
(* adjacent to L_d, hence lie in L_{d-1} (or in W itself when d = 1):  *)
(* L_d nodes are informed too late to send, deeper nodes do not exist. *)
(* When some x in L_d has a unique candidate parent u, that u is       *)
(* forced to transmit in the final advance. Two forced parents         *)
(* adjacent to one still-uninformed y in L_d conflict under the        *)
(* paper's predicate (N(u) ∩ N(v) ∩ W̄ ∋ y), refuting the d-advance    *)
(* completion: the bound tightens to d + 1. The same argument holds    *)
(* under duty cycling — wake constraints only delay advances further.  *)
(* ------------------------------------------------------------------ *)

type kind = Ecc | Packing

(* Domain-local forced-parent scratch, keyed per domain like Mcounter's
   BFS scratch so parallel sweeps never race; resized lazily when the
   node count changes between instances. *)
let forced_key : Bitset.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let local_forced n =
  let slot = Domain.DLS.get forced_key in
  match !slot with
  | Some f when Bitset.cap f = n -> f
  | _ ->
      let f = Bitset.create n in
      slot := Some f;
      f

(* The packing argument leans on the UDG conflict predicate: under SINR
   the capture effect can let two forced parents transmit together (one
   wins at y), and under multi-channel they can sit on distinct
   channels — either way the refutation is unsound, so only the
   eccentricity bound applies (every advance still informs only
   distance-1 nodes under every backend). *)
let packing_applies st =
  match Model.phy (Istate.model st) with
  | Mlbs_phy.Interference.Udg -> true
  | Mlbs_phy.Interference.Sinr _ | Mlbs_phy.Interference.Multichannel _ -> false

(* [lone r set] is the word index of the one bit of [r ∩ set], -1 when
   the intersection is empty and -2 when it has two bits or more. *)
let lone r set =
  let at = ref (-1) and j = ref 0 in
  while !at <> -2 && !j < Array.length set do
    let y = r.(!j) land set.(!j) in
    if y <> 0 then at := if !at = -1 && y land (y - 1) = 0 then !j else -2;
    incr j
  done;
  !at

(* Two word loops over the top layer's members [x]: [x] has a forced
   parent iff N(x) ∩ parents is one bit, and the bound is refuted iff
   some [x] has two bits or more in N(x) ∩ forced. *)
let remaining st =
  if Istate.complete st then (0, Ecc)
  else
    let d = Istate.lb st in
    if d = max_int then (max_int, Ecc)
    else if not (packing_applies st) then (d, Ecc)
    else begin
      let rows = Graph.neighbor_sets (Model.graph (Istate.model st)) in
      let top = Bitset.words (Istate.layer st ~d) in
      let parents = Bitset.words (if d = 1 then Istate.w st else Istate.layer st ~d:(d - 1)) in
      let forced_set = local_forced (Istate.capacity st) in
      Bitset.clear forced_set;
      let forced = Bitset.words forced_set and refuted = ref false in
      for pass = 0 to 1 do
        for i = 0 to Array.length top - 1 do
          let word = ref top.(i) in
          while !word <> 0 && not !refuted do
            let lsb = !word land - !word in
            let r = Bitset.words rows.((i * Bitset.bits_per_word) + Bitset.bit_index lsb) in
            (if pass = 0 then (
               let j = lone r parents in
               if j >= 0 then forced.(j) <- forced.(j) lor (r.(j) land parents.(j)))
             else if lone r forced = -2 then refuted := true);
            word := !word lxor lsb
          done
        done
      done;
      if !refuted then (d + 1, Packing) else (d, Ecc)
    end
