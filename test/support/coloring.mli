(** Generic greedy vertex colouring over an explicit conflict relation:
    the tests' pairwise oracle for Algorithm 1.

    The paper's Algorithm 1 colours *relay candidates* where "adjacent"
    means the conflict predicate (common uninformed neighbour), and
    visits candidates in descending receiver count. The library builds
    those classes incrementally ([Mlbs_phy.Interference.classes]); this
    module is the same colouring spelled pairwise, for any relation,
    and the tests hold the incremental builder to it. *)

(** [greedy ~order ~conflicts items] colours [items] visiting them in
    [order]'s sort order (stable; ties keep input order). [conflicts a b]
    must be symmetric and irreflexive. Returns the colour classes in
    colour order 1..λ, each class listing its members in visit order.

    The construction matches Eq. (1)/(2): scanning the ordered list, an
    item joins the current colour iff it conflicts with no member
    already in it; leftovers repeat with the next colour, so every item
    of colour i > 1 conflicts with some earlier-coloured item. *)
val greedy :
  order:('a -> 'a -> int) -> conflicts:('a -> 'a -> bool) -> 'a list -> 'a list list

(** [classes_valid ~conflicts classes] checks the colouring invariants:
    members of one class are pairwise conflict-free, and every member of
    class i > 0 conflicts with a member of some earlier class. *)
val classes_valid : conflicts:('a -> 'a -> bool) -> 'a list list -> bool
