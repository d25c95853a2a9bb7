(** Multi-channel slots ("Schedule Sequence Design for Broadcast in
    Multi-channel Ad Hoc Networks", arXiv:2009.09190): colours decode
    to (slot, channel) pairs, conflicts apply only within a channel,
    and a receiver tunes a single channel per slot.

    Channels are *derived*, not stored: a slot's sender list is split
    into channel groups by first-fit in list order against the slot's
    claimed uninformed set. The scheduler emits sender lists in
    concatenated-class order, and first-fit over such an order
    reproduces the classes exactly (a member of class j conflicts with
    every earlier class — that is why it was pushed to class j — and
    joins its own class's prefix as it did during construction), so
    the planner, the validator and the replay all reconstruct the same
    (slot, channel) assignment from the schedule bytes alone. *)

module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph
module Metrics = Mlbs_obs.Metrics

let c_channel_assignments = Metrics.counter "phy/channel_assignments"

(* First-fit channel assignment of [senders] (in list order): each
   sender joins the lowest-indexed group it has no intra-channel (UDG vs
   [uninformed]) conflict with, unless that would open group [k + 1] —
   then it is left out. Returns the groups in channel order (members
   newest first) and the placed senders newest first. A sender's group
   depends on earlier senders only, so first-fit over the placed
   senders rebuilds the same groups. *)
let assign ~k g ~uninformed senders =
  let rec place u = function
    | [] -> [ [ u ] ]
    | grp :: rest ->
        if List.exists (fun v -> Udg.conflicts g ~uninformed u v) grp then
          grp :: place u rest
        else (u :: grp) :: rest
  in
  List.fold_left
    (fun (gs, placed) u ->
      Metrics.incr c_channel_assignments;
      let gs' = place u gs in
      if List.length gs' > k then (gs, placed) else (gs', u :: placed))
    ([], []) senders

(* Unbounded grouping — the validator checks the group count against k. *)
let groups g ~uninformed senders =
  List.map List.rev (fst (assign ~k:max_int g ~uninformed senders))

(* The senders that find one of [k] channels. *)
let fit g ~uninformed ~k senders = List.rev (snd (assign ~k g ~uninformed senders))

(* Rendezvous reception: [rx] tunes the lowest channel on which any
   *scheduled* sender is adjacent (receivers know the schedule, not the
   fault pattern), then hears exactly the effective adjacent senders of
   that one group. Returns the audible list: [] silent, [u] delivery,
   more a collision. *)
let reception g ~groups ~effective ~rx =
  let rec tune = function
    | [] -> None
    | grp :: rest ->
        if List.exists (fun u -> Graph.mem_edge g u rx) grp then Some grp
        else tune rest
  in
  match tune groups with
  | None -> []
  | Some grp -> List.filter (fun u -> effective u && Graph.mem_edge g u rx) grp
