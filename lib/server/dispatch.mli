(** Bounded admission queue + batching dispatcher over a domain pool,
    extracted from {!Daemon} for reuse.

    Connection threads [submit] closures; one dispatcher thread batches
    up to pool-width of them per round onto the pool's workers. A full
    queue sheds at the door with the observed depth (the caller turns
    that into a [retry_after_ms] hint); after {!stop} the queue drains
    but admits nothing new. *)

type 'a t

(** A submitted unit of work, awaited by the submitting thread. *)
type 'a ticket

(** [create ~pool ~capacity] — [capacity] bounds the queue; work beyond
    it is shed at submission. The pool is borrowed, not owned: callers
    shut it down themselves after {!join}. *)
val create : pool:Mlbs_util.Pool.t -> capacity:int -> 'a t

(** [submit t ?on_done f] enqueues [f]. [Error `Closing] once draining,
    [Error (`Shed depth)] when the queue is full. [on_done] runs in the
    dispatcher thread with the result before the submitter wakes —
    the hook the daemon uses to publish into its cache even if the
    submitting connection died. Exceptions from [f] surface as
    [Error msg] results; exceptions from [on_done] are swallowed. *)
val submit :
  'a t ->
  ?on_done:(('a, string) result -> unit) ->
  (unit -> 'a) ->
  ('a ticket, [ `Closing | `Shed of int ]) result

(** Block until the ticket's closure ran. *)
val await : 'a ticket -> ('a, string) result

(** Spawn the dispatcher thread. *)
val start : 'a t -> unit

(** Request a drain: pending tickets still complete, new submissions are
    refused. Async-signal-safe (a single atomic store). *)
val stop : 'a t -> unit

(** Wake the dispatcher and join its thread; call after {!stop}, from a
    normal (non-signal) context. *)
val join : 'a t -> unit
