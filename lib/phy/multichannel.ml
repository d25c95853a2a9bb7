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
    (slot, channel) assignment from the schedule bytes alone.

    There is no admission step: a sender that finds no free channel
    among the [k] joins the last one and may collide there (the
    overflow rule), so at [k = 1] every sender shares one channel and
    the radio is UDG's. *)

module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph
module Metrics = Mlbs_obs.Metrics

let c_channel_assignments = Metrics.counter "phy/channel_assignments"

(* First-fit channel assignment of [senders] (in list order) onto [k]
   channels: each sender joins the lowest-indexed group it has no
   intra-channel (UDG vs [uninformed]) conflict with. One that would
   open group [k + 1] joins group [k] instead — it transmits anyway and
   may collide there. Returns the groups in channel order and whether any
   sender overflowed. A sender's group depends on earlier senders only,
   so a schedule's grouping is a function of its bytes. *)
let groups ~k g ~uninformed senders =
  let overflow = ref false in
  let rec place i u = function
    | [] -> [ [ u ] ]
    | grp :: rest ->
        if not (List.exists (fun v -> Udg.conflicts g ~uninformed u v) grp) then
          (u :: grp) :: rest
        else if rest = [] && i = k then begin
          overflow := true;
          [ u :: grp ]
        end
        else grp :: place (i + 1) u rest
  in
  let gs =
    List.fold_left
      (fun gs u ->
        Metrics.incr c_channel_assignments;
        place 1 u gs)
      [] senders
  in
  (List.map List.rev gs, !overflow)

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
