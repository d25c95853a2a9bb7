(** Consistent-hash ring: deterministic key → backend-name placement
    with bounded movement under membership change.

    Each member contributes [replicas] virtual points on a 64-bit ring
    (FNV-1a + SplitMix64 finalizer over ["name#i"], independent of
    [Hashtbl.hash] and of insertion order); a key is owned by the first
    point clockwise from its hash. Adding a member only claims keys from
    its ring neighbours; removing one only re-homes the keys it owned —
    the properties the fleet's failover leans on, and that test_fleet.ml
    checks with qcheck. *)

type t

(** [create ?replicas names] builds a ring over the distinct [names]
    (duplicates are collapsed). [replicas] defaults to 64 virtual points
    per member. Raises [Invalid_argument] when [replicas <= 0]. *)
val create : ?replicas:int -> string list -> t

(** Members, sorted and distinct. *)
val nodes : t -> string list

val is_empty : t -> bool
val replicas : t -> int

(** [owner t key] is the member owning [key], [None] on an empty ring. *)
val owner : t -> string -> string option

(** Functional membership updates (same replica count). *)
val add : t -> string -> t

val remove : t -> string -> t
