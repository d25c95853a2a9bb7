(** The layer-synchronised baseline for the duty-cycle system — the
    "17-approximation" of Jiao et al. (ICDCS 2010), the best prior
    duty-cycle result the paper compares against (§V.A).

    Operationally (as the paper simulates it): the BFS color scheme is
    applied per hop-distance layer; a selected color's relays each
    transmit at their own next wake-up slot; a color that backs off
    re-initiates after a wait of k slots (1 ≤ k ≤ 2r); and every color
    of a layer completes before the next layer starts. The total delay
    accumulates per hop — up to 17·k·d — because the layer
    synchronisation forbids any pipelining with already-informed
    nodes.

    A slot's share of a color is fired unchanged when it replays clean
    at the current informed set. Under SINR it may not (it can lack the
    capturer a receiver decoded from); then it is split with the
    model's class builder, its first class fires, and the rest wait for
    their next wake-ups. *)

(** [plan model ~source ~start] computes the layered duty-cycle
    schedule; the source transmits at its first wake slot ≥ [start].
    Raises [Invalid_argument] under [Sync] (use {!Baseline26}). *)
val plan : Model.t -> source:int -> start:int -> Schedule.t
