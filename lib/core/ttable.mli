(** Open-addressing transposition table for the exact search.

    Entries are keyed by the informed set (content equality, probed via
    its incrementally-carried hash) plus a slot: sync searches — whose
    values depend on [W] alone — use the sentinel slot [0], async
    searches the true [(W, slot)] pair, so one table per search context
    replaces the two boxed [Hashtbl]s it grew out of. Stored sets are
    hash-consed: async entries for one informed set at several slots
    share a single immutable copy.

    Unbounded tables ([max_entries = 0], the search default) grow and
    never evict, so lookups hit exactly when a [Hashtbl] would and every
    value a search establishes stays available to plan construction and
    snapshots. Bounded tables overwrite in place at capacity
    (value-safe: a memo entry's value is a pure function of its key, so
    dropping one only costs recomputation); no slot is ever cleared, so
    probe chains stay intact either way.

    Counters: [search/tt_hit], [tt_miss], [tt_collision] (probe-chain
    displacements), [tt_evict] (capacity-policy replacements or
    declined inserts), [tt_grow]. *)

module Bitset = Mlbs_util.Bitset

type t

(** [create ?max_entries ()] makes an empty table. [max_entries = 0]
    (default) means unbounded; a positive bound fixes the capacity and
    enables in-place replacement. *)
val create : ?max_entries:int -> unit -> t

(** Number of live entries. *)
val length : t -> int

(** [find t ~h ~slot ~set] looks up [(set, slot)] given [h = Bitset.hash
    set]. Equality is verified against the stored set, so hash
    collisions can cost probes but never wrong values. *)
val find : t -> h:int -> slot:int -> set:Bitset.t -> int option

(** [find_union t ~h ~slot ~base ~cov] looks up the child key
    [(base ∪ cov, slot)] without materialising the union, given
    [h = Bitset.hash_union base cov (Bitset.hash base)]. *)
val find_union : t -> h:int -> slot:int -> base:Bitset.t -> cov:Bitset.t -> int option

(** [add t ~h ~slot ~set v] binds [(set, slot) ↦ v], replacing any
    existing binding. The stored set is a private (interned) copy, so
    the caller's set may be mutated afterwards. *)
val add : t -> h:int -> slot:int -> set:Bitset.t -> int -> unit

(** [add_shared] is [add] but stores the caller's set without copying —
    for seeding from snapshot entries, which are already immutable. *)
val add_shared : t -> h:int -> slot:int -> set:Bitset.t -> int -> unit

(** [iter f t] applies [f] to every live entry (deterministic slot
    order) — the snapshot-capture walk. *)
val iter : (h:int -> slot:int -> set:Bitset.t -> value:int -> unit) -> t -> unit
