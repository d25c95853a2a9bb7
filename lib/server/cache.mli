(** Thread-safe LRU cache — the daemon's content-addressed schedule
    cache and its topology memo are both instances.

    Keys are strings (the daemon uses "digest:policy:rate:…" content
    addresses). Every operation takes the instance's mutex, so entries
    are never torn across the daemon's connection threads or the pool's
    worker domains; values are expected to be immutable once inserted.

    Hit/miss/eviction/insertion counters land in {!Mlbs_obs.Metrics}
    under [<metrics_prefix>/…] (no-ops while the registry is
    disabled). *)

type 'a t

(** [create ?metrics_prefix ~capacity ()] is an empty cache holding at
    most [capacity] entries (a [capacity <= 0] cache stores nothing —
    every lookup misses). Default prefix: ["server/cache"]. *)
val create : ?metrics_prefix:string -> capacity:int -> unit -> 'a t

val capacity : 'a t -> int
val length : 'a t -> int

(** [find t key] promotes a present entry to most-recently-used and
    returns it; counts a hit or a miss. *)
val find : 'a t -> string -> 'a option

(** [add t key v] inserts (or replaces) at most-recently-used and evicts
    least-recently-used entries while over capacity. *)
val add : 'a t -> string -> 'a -> unit

(** [to_list_mru t] is every (key, value) pair, most-recently-used
    first — the order the daemon persists hot entries in. *)
val to_list_mru : 'a t -> (string * 'a) list

val clear : 'a t -> unit
