(** What the on-line broadcasts ({!Flooding}, {!Localized},
    {!Broadcast_protocol}) share: one radio — the
    [Interference.slot_ctx]/[Interference.reception] call
    [Mlbs_sim.Radio.replay] makes, so every runner's schedule replays
    under the model it ran on — and the retry machinery of the two
    conflict-aware runners. A runner that takes a fault plan sends by
    {!Mlbs_sim.Fault.own_clock}, the clock the replay judges it by. *)

module Bitset = Mlbs_util.Bitset
module Model = Mlbs_core.Model

(** [max_slots model m] is [m], else the default [64 * n * r]. *)
val max_slots : Model.t -> int option -> int

(** [air model ~informed ~senders ~hears f] calls [f rx outcome] for
    every node [rx] outside [informed] that [hears] admits, in ascending
    order, with what the model's radio grants it this slot. *)
val air :
  Model.t ->
  informed:Bitset.t ->
  senders:int list ->
  hears:(int -> bool) ->
  (int -> Mlbs_phy.Interference.outcome -> unit) ->
  unit

(** Eligible slots in a row a node may spend neither sending nor
    hearing data before it transmits unconditionally — divergent local
    selections can otherwise deadlock, every node deferring to a class
    someone else picked. *)
val stall_limit : int

(** [note_stalls graph stalled ~senders ~eligible] advances the stall
    counters once a slot's senders are fixed: a sender or a neighbour of
    one resets to 0; any other [eligible] node counts one more. *)
val note_stalls :
  Mlbs_graph.Graph.t -> int array -> senders:int list -> eligible:(int -> bool) -> unit

(** [backoff u k] is [u]'s deterministic back-off, in own active slots,
    after its [k]-th failed attempt: binary exponential, reproducible. *)
val backoff : int -> int -> int

(** [nth_wake system u t k] is [u]'s [k]-th active slot after [t]. *)
val nth_wake : Model.system -> int -> int -> int -> int
