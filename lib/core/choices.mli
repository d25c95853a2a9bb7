(** Choice spaces for the M-counter search — which color sets a
    scheduler may launch from the current progress [W] at slot [t].

    - [Greedy] (Eq. 2/3): the λ classes produced by Algorithm 1 — the
      G-OPT space. The {!Mcounter} search skips a class whose coverage
      is a strict subset of a sibling class's.
    - [All] (Eq. 1): any valid color set. Because the broadcast model is
      monotone, only maximal conflict-free candidate subsets matter;
      [max_sets] caps the enumeration on dense frontiers (the cap is a
      documented approximation: when hit, OPT explores a deterministic
      subset of its full space). *)

type t = Greedy | All of { max_sets : int }

(** [enumerate ist space ~slot] is the list of color sets (each a
    sender list) available at the current position of [ist]. Empty iff
    there is no awake candidate. *)
val enumerate : Istate.t -> t -> slot:int -> int list list
