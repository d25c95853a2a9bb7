(** The broadcast tree induced by a schedule: who informed whom.

    §II of the paper discusses how "the adoption of each link and the
    use of its direction in the broadcasting tree can affect the overall
    delay" — e.g. the optimal Figure 1 solution uses link 1–4 in one
    direction or the other depending on wake-ups. This module extracts
    that tree from a concrete schedule so experiments and tests can
    inspect link utilisation, depth and per-hop timing. *)

type t

(** [of_schedule model schedule] derives the tree. Each informed node's
    parent is the (unique, by conflict-freedom) sender it heard; the
    source is the root. Raises [Invalid_argument] when some node is
    never informed or hears several senders at once (validate the
    schedule first). *)
val of_schedule : Model.t -> Schedule.t -> t

(** [parent t v] is [Some u] when [u]'s relay informed [v], [None] for
    the source. *)
val parent : t -> int -> int option

(** [children t u] is the sorted list of nodes informed by [u]'s
    relay. *)
val children : t -> int -> int list

(** [depth t v] is the number of tree edges from the source to [v]. *)
val depth : t -> int -> int

(** [height t] is the maximum depth. *)
val height : t -> int

(** [informed_slot t v] is the slot at which [v] received the message
    ([start - 1] convention: the source's own slot is the schedule's
    start slot). *)
val informed_slot : t -> int -> int

(** [relays t] is the sorted list of nodes that transmitted. *)
val relays : t -> int list

(** [directed_edges t] is every (parent, child) pair. *)
val directed_edges : t -> (int * int) list
