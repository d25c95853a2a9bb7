(** The fleet front tier: consistent-hash routing of scheduling
    requests across backend daemons, with peer cache-fill, health-driven
    ring rebuilds, and global backpressure (DESIGN.md §9).

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
  replicas : int;  (** virtual points per shard on the ring *)
  health_period : float;  (** seconds between backend probes *)
  max_inflight : int;  (** global in-flight cap before the front sheds *)
}

(** 64 replicas, 1 s health period, 256 in-flight, no TCP. *)
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
