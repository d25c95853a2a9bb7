(** What the on-line broadcasts ({!Flooding}, {!Localized},
    {!Broadcast_protocol}) share: one radio — the
    [Interference.slot_ctx]/[Interference.reception] call
    [Mlbs_sim.Radio.replay] makes, so every runner's schedule replays
    under the model it ran on — one clock rule for the runners that take
    a fault plan, and the retry machinery of the two conflict-aware
    runners. *)

module Bitset = Mlbs_util.Bitset
module Model = Mlbs_core.Model

(** [max_slots model m] is [m], else the default [64 * n * r]. *)
val max_slots : Model.t -> int option -> int

(** [own_clock model faults] is the wake system a node's own radio
    follows under [faults]: the model's, with the plan's wake jitter
    applied under [Async] ({!Mlbs_sim.Fault.jittered}, the identity at
    jitter 0). [Mlbs_sim.Validate.check_under_faults] drops a sender
    that is asleep on this clock, so a runner that sends only when
    [awake] on it keeps every send its replay counts. Forecasts of a
    neighbour's wakes stay on the published schedule — the gap between
    the two is the fault being injected. *)
val own_clock : Model.t -> Mlbs_sim.Fault.t -> Model.system

(** [awake system u ~slot] is [true] under [Sync]; under [Async],
    whether [slot] is one of [u]'s active slots. *)
val awake : Model.system -> int -> slot:int -> bool

(** [admit model ~informed senders] keeps the would-be senders that find
    a channel ({!Mlbs_phy.Interference.admit}): all of them unless the
    model is [Multichannel k], whose slots must not overflow [k]. *)
val admit : Model.t -> informed:Bitset.t -> int list -> int list

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
