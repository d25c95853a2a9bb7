(** The fleet front tier: consistent-hash routing of scheduling
    requests across backend daemons, with health-driven ring rebuilds
    and global backpressure (DESIGN.md §9). Each request is sent once,
    to the ring owner of its content address.

    The front speaks the same {!Codec} protocol as a single daemon — a
    client cannot tell the difference — and relays reply payloads
    byte-for-byte, so a reply served through the fleet is byte-identical
    to the owning backend's (and hence to a direct
    {!Mlbs_core.Scheduler.run}), even after a backend died mid-run and
    the request was re-routed. *)

type config = {
  socket_path : string option;  (** Unix-domain listener *)
  tcp_port : int option;  (** loopback TCP listener; [Some 0] = ephemeral *)
  backends : Client.endpoint list;  (** the shards, in stable order *)
  health_period : float;  (** seconds between backend probes *)
}

(** 1 s health period, no TCP. The ring gives each shard
    {!Ring.create}'s default of 64 virtual points, and the front sheds
    beyond 256 requests in flight. *)
val default_config : backends:Client.endpoint list -> socket_path:string -> config

(** Stable shard name used on the ring and in logs: ["host:port"] for
    TCP backends, ["unix:path"] for Unix-domain ones. *)
val endpoint_name : Client.endpoint -> string

type t

(** [start cfg] binds the listeners ({!Acceptor.bind}), probes the
    backends (the live ones form the initial ring), and spawns the
    accept and health threads. Raises [Failure] without a listener or
    backends. *)
val start : config -> t

(** Initiate shutdown; idempotent, signal-safe. *)
val stop : t -> unit

(** Block until stopped, then join the threads and close the listeners
    and the pooled backend connections. *)
val wait : t -> unit

(** [start] + [wait]. *)
val run : config -> unit

(** Actual bound TCP port, as {!Daemon.tcp_port}. *)
val tcp_port : t -> int option

(** Names of the backends currently on the ring (for tests/tools). *)
val alive_backends : t -> string list
