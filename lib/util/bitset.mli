(** Fixed-capacity bit sets over the integers [0, capacity).

    The scheduler search spaces of this library are keyed by the set [W] of
    informed nodes, so bit sets are on the hot path: they must support O(1)
    membership, cheap unions, and fast hashing/equality for memo tables.
    The representation is a flat [int array] with 63 usable bits per word
    (we deliberately avoid the sign bit so that [compare] on words matches
    unsigned order). *)

type t

(** [create capacity] is the empty set able to hold elements in
    [0 .. capacity - 1]. Raises [Invalid_argument] if [capacity < 0]. *)
val create : int -> t

(** [cap s] is the capacity given at creation time. *)
val cap : t -> int

(** [copy s] is a fresh set equal to [s] that shares no storage with it. *)
val copy : t -> t

(** [assign ~into src] overwrites [into] with the contents of [src] in
    place, allocation-free. The two sets must have the same capacity. *)
val assign : into:t -> t -> unit

(** [clear s] empties [s] in place, keeping its capacity. *)
val clear : t -> unit

(** [add s i] sets bit [i]. Raises [Invalid_argument] when out of range. *)
val add : t -> int -> unit

(** [remove s i] clears bit [i]. *)
val remove : t -> int -> unit

(** [mem s i] is [true] iff bit [i] is set. Out-of-range indices are
    [false] rather than an error so that callers can probe freely. *)
val mem : t -> int -> bool

(** [cardinal s] is the number of set bits (population count). *)
val cardinal : t -> int

(** [is_empty s] is [cardinal s = 0], without counting every word. *)
val is_empty : t -> bool

(** [is_full s] is [true] iff every bit in [0 .. cap s - 1] is set.
    Word-wise against the all-ones masks, short-circuiting on the first
    hole — O(words), no popcount. *)
val is_full : t -> bool

(** [union_into ~into src] adds every element of [src] to [into].
    The two sets must have the same capacity. *)
val union_into : into:t -> t -> unit

(** [union a b] is a fresh set holding [a ∪ b]. *)
val union : t -> t -> t

(** [inter a b] is a fresh set holding [a ∩ b]. *)
val inter : t -> t -> t

(** [inter_into ~into src] restricts [into] to [into ∩ src] in place,
    allocation-free. The two sets must have the same capacity. *)
val inter_into : into:t -> t -> unit

(** [union_inter_into ~into a b] adds [a ∩ b] to [into] in place,
    allocation-free — one word-wise pass, no intermediate set. All
    three sets must share one capacity. *)
val union_inter_into : into:t -> t -> t -> unit

(** [diff a b] is a fresh set holding [a \ b]. *)
val diff : t -> t -> t

(** [complement s] is a fresh set holding [{0..cap-1} \ s]. *)
val complement : t -> t

(** [complement_into ~into src] overwrites [into] with
    [{0..cap-1} \ src] in place, allocation-free. The two sets must have
    the same capacity ([into] may alias [src]). *)
val complement_into : into:t -> t -> unit

(** [intersects a b] is [true] iff [a ∩ b ≠ ∅], allocation-free. *)
val intersects : t -> t -> bool

(** [intersects3 a b c] is [true] iff [a ∩ b ∩ c ≠ ∅], word-wise and
    allocation-free — equivalent to [intersects (inter a b) c] without
    the intermediate set. *)
val intersects3 : t -> t -> t -> bool

(** [subset a b] is [true] iff every element of [a] is in [b]. *)
val subset : t -> t -> bool

(** [equal a b] is structural equality of contents (same capacity
    required). *)
val equal : t -> t -> bool

(** [compare] is a total order compatible with [equal], usable as a
    [Map.OrderedType]. *)
val compare : t -> t -> int

(** [hash s] is a content hash suitable for [Hashtbl] keying. Equal sets
    hash equally. The hash is an XOR of independently mixed words, so it
    can be maintained incrementally under single-bit flips via
    [hash_flip]. *)
val hash : t -> int

(** [hash_flip s i h] is [hash] of [s] with bit [i] flipped, given that
    [h = hash s] — an O(1) re-derivation used by incrementally
    maintained informed-set hashes. Call it {e before} mutating [s]
    (it reads the current word). Raises [Invalid_argument] when [i] is
    out of range. *)
val hash_flip : t -> int -> int -> int

(** [hash_union s cov h] is [hash (union s cov)], given that
    [h = hash s] — O(words) with no allocation, used to probe a
    transposition table for a child key [W ∪ cov] without building the
    union. Raises [Invalid_argument] on capacity mismatch. *)
val hash_union : t -> t -> int -> int

(** [equal_union a s cov] is [equal a (union s cov)] without building
    the union — the verification step after a [hash_union] probe hit. *)
val equal_union : t -> t -> t -> bool

(** {1 Word view}

    For kernels that scan several sets in lock-step one word at a time:
    member [i] of [s] is bit [i mod bits_per_word] of word
    [i / bits_per_word] of [words s]. *)

(** [bits_per_word] is 63: the sign bit of each word is left clear. *)
val bits_per_word : int

(** [words s] is [s]'s word array — the internal one, not a copy, so a
    view that follows later {!add}s. Callers must not mutate it. Sets
    of one capacity have word arrays of one length. *)
val words : t -> int array

(** [bit_index b] is [k] when [b = 1 lsl k] with [k] in
    [0, bits_per_word)] — the position of a word's lowest member once
    isolated as [w land (-w)]. *)
val bit_index : int -> int

(** [iter f s] applies [f] to each member in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [for_all p s] is [true] iff [p] holds for every member. Members
    are tested in increasing order and the scan stops at the first
    one [p] rejects, so [p] is never applied past it. *)
val for_all : (int -> bool) -> t -> bool

(** [fold f s init] folds over members in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [elements s] is the sorted list of members. *)
val elements : t -> int list

(** [of_list capacity xs] builds a set from a member list. *)
val of_list : int -> int list -> t

(** [of_array capacity xs] builds a set from a member array. Raises
    [Invalid_argument] when a member is out of range. *)
val of_array : int -> int array -> t

(** [full capacity] is the set containing all of [0 .. capacity - 1]. *)
val full : int -> t

(** [choose s] is the smallest member, or [None] when empty. *)
val choose : t -> int option

(** [pp] formats as "{1, 4, 7}". *)
val pp : Format.formatter -> t -> unit
