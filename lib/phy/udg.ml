(** The paper's protocol (UDG) interference model, extracted from the
    scheduler core so every backend answers the same two questions
    through one interface: "may [u] and [v] transmit in the same slot?"
    and "which candidates does an accepted sender block?".

    Two informed senders collide exactly when some still-uninformed
    node hears both — the predicate N(u) ∩ N(v) ∩ W̄ ≠ ∅ that the
    greedy colouring, the G-OPT choice enumeration and the validator
    all share. The blocked-set form is the same fact maintained
    incrementally: accepting [u] into a class claims N(u) ∩ W̄, and a
    later candidate joins iff its neighbourhood misses every claimed
    receiver. *)

module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph

let conflicts g ~uninformed u v =
  u <> v
  && Bitset.intersects3 (Graph.neighbor_set g u) (Graph.neighbor_set g v) uninformed

(* [blocked] is the union of N(m) ∩ W̄ over accepted class members — it
   doubles as the class's coverage (the informed-set delta a slot of
   these senders produces), which is why the search keeps a single
   bitset for both roles. Both take the candidate's neighbour row
   [N(u)], so a graph and a node's local view share them. *)
let admits ~blocked row = not (Bitset.intersects row blocked)

let accept ~blocked ~uninformed row = Bitset.union_inter_into ~into:blocked row uninformed
