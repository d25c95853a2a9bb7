(** The layer-synchronised baseline for the synchronous system — the
    "26-approximation" of Chen, Qiao, Xu & Lee (INFOCOM 2007), the best
    prior conflict-aware result the paper compares against (§V.A).

    Operationally (as the paper simulates it): build a BFS from the
    source; per 1-hop layer, apply the greedy color scheme to the
    layer's relays; launch the colors in consecutive rounds; and only
    start layer ℓ+1 once every color of layer ℓ has fired — the
    synchronisation that blocks interference-free relays and that the
    paper's pipeline removes. *)

(** [plan model ~source ~start] computes the layered schedule. Raises
    [Invalid_argument] under [Async] (use {!Baseline17}). *)
val plan : Model.t -> source:int -> start:int -> Schedule.t

(** [layered ~name layering model ~source ~start] fires the layers
    [layering model ~source] in order, each layer's {!layer_classes} in
    consecutive rounds. {!plan} layers by BFS hop distance;
    [Baseline_cds] by hop distance inside its backbone. Raises
    [Invalid_argument] under [Async] and [Failure] when the layers do
    not cover the network, both messages prefixed with [name]. *)
val layered :
  name:string ->
  (Model.t -> source:int -> int list list) ->
  Model.t ->
  source:int ->
  start:int ->
  Schedule.t

(** [layer_classes ist layer] colours one BFS layer's relays at the
    current position of [ist] the way the hop-distance schemes do:
    relays are the layer members with an uninformed neighbour; the
    greedy order is descending receiver count. Shared with
    {!Baseline17}. *)
val layer_classes : Istate.t -> int list -> int list list
