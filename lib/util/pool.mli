(** Fixed-size domain pool for embarrassingly parallel sweeps.

    The experiment engine evaluates many independent (seed, node-count,
    rate) instances; this pool fans them out over OCaml 5 domains while
    keeping results in input order, so figure and table output is
    byte-identical regardless of the worker count. A pool of [jobs]
    spawns at most [jobs - 1] worker domains — capped so the computing
    domains never exceed the hardware's recommended parallelism, since
    an oversubscribed domain only adds stop-the-world GC handshakes.
    Batches are split into at most [jobs] contiguous chunks, the
    submitting domain runs the first chunk itself and helps drain the
    queue before blocking, so the chunk layout (and hence the output) is
    a function of [jobs] alone while the domain count adapts to the
    machine.

    Determinism contract: [map] writes result [i] of input [i] — never
    reordered by completion time — and when several tasks raise, the
    exception of the lowest-indexed failing task is re-raised. *)

type t

(** [default_jobs ()] is [Domain.recommended_domain_count ()] — the
    worker count used when no [--jobs] override is given. *)
val default_jobs : unit -> int

(** [create ~jobs] builds a pool of [max 1 jobs] computing domains:
    up to [jobs - 1] spawned workers (capped at
    [default_jobs () - 1]) plus the submitter. [jobs = 1] spawns no
    domains at all: every batch runs inline on the caller. *)
val create : jobs:int -> t

(** [size t] is the computing-domain count the pool was created with. *)
val size : t -> int

(** [map_on t f input] applies [f] to every element of [input] on the
    pool and returns the results in input order. The batch is split into
    [min (size t) (Array.length input)] contiguous chunks; the caller
    runs the first inline. Exceptions raised by [f] are captured and
    re-raised (lowest index first) after the batch drains, so the pool
    is never poisoned by a failing task. *)
val map_on : t -> ('a -> 'b) -> 'a array -> 'b array

(** [shutdown t] stops the workers and joins their domains. Idempotent;
    [map_on] after [shutdown] raises [Invalid_argument]. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] is [f pool] with creation and shutdown managed,
    shutting down even when [f] raises. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** [map ~jobs f input] is the indexed parallel map of the experiment
    engine, running on a process-wide pool that stays warm across
    batches (re-created only when [jobs] changes, joined at exit) so
    repeated sweeps pay domain spawning once, not per batch.
    [jobs <= 1] computes inline with no domain spawned. *)
val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array

(** [map_list ~jobs f xs] is [map] over a list, preserving order. *)
val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
