(** The server shell shared by {!Daemon} and {!Fleet}: listeners, the
    accept thread, the per-connection frame loop, the [Hello] and
    [Shutdown] frames, malformed-frame handling, stop/wait, and the
    metric family both servers count into. A server supplies only
    [payload -> reply payload] for its own frames. *)

(** The metrics every server keeps under its prefix ([server] for the
    daemon, [server/fleet] for the front): [<prefix>/requests],
    [replies_ok], [rejected], [errors], [connections], [bad_frames] and
    the [request_us] histogram. The shell counts [connections] and
    [bad_frames]; the server counts the rest. [request_us] times the
    handling of a decoded [Request] or [Reschedule] frame up to its
    reply payload; other frames and the reply write are not timed. *)
type family = {
  requests : Mlbs_obs.Metrics.counter;
  replies_ok : Mlbs_obs.Metrics.counter;
  rejected : Mlbs_obs.Metrics.counter;
  errors : Mlbs_obs.Metrics.counter;
  connections : Mlbs_obs.Metrics.counter;
  bad_frames : Mlbs_obs.Metrics.counter;
  request_us : Mlbs_obs.Metrics.histogram;
}

(** [family prefix] registers (idempotently) the family under [prefix]. *)
val family : string -> family

type t

(** [bind ~socket_path ~tcp_port family] enables the metrics registry,
    ignores SIGPIPE and binds the listeners: a Unix-domain socket at
    [socket_path] and loopback TCP on [tcp_port] ([Some 0] picks an
    ephemeral port). A pre-existing file at [socket_path] is
    probe-connected first: if a live server accepts, the bind fails
    rather than clobber it; otherwise the stale file is unlinked.
    Raises [Failure] when neither listener is configured or a bind
    fails. Nothing is accepted before {!serve}. *)
val bind : socket_path:string option -> tcp_port:int option -> family -> t

(** [serve t handle] spawns the accept thread; every connection gets a
    thread running the frame loop. [Hello] is answered with [Hello_ack];
    [Shutdown] with [Shutdown_ack], then {!stop} and a close. Every other
    frame's payload goes to [handle], whose result is sent back as the
    reply payload. A malformed frame (bad length, unknown tag, or
    [Codec.Malformed] raised by [handle]) counts [bad_frames], is
    answered [Reply_error "malformed frame"] and closes the connection. *)
val serve : t -> (string -> string) -> unit

(** Stop accepting: a single atomic store, so idempotent and safe from
    signal handlers and connection threads. *)
val stop : t -> unit

(** [stopping t] holds once {!stop} was called; the servers' own
    background threads poll it. *)
val stopping : t -> bool

(** [wait t] blocks until {!stop}, joins the accept thread (it notices
    the stop within its 250 ms select timeout) and closes the listeners,
    unlinking the Unix-domain socket. Idempotent. *)
val wait : t -> unit

(** The actual bound TCP port; [None] without a TCP listener. *)
val tcp_port : t -> int option

(** [note_ewma e x] folds [x] into the moving average [e] with weight
    1/8, the first sample seeding it; lock-free, safe from any domain.
    Both servers base their retry hints on one. *)
val note_ewma : int Atomic.t -> int -> unit

(** [stats keep] is the metrics snapshot flattened by
    {!Mlbs_obs.Metrics.to_int}, restricted to the names [keep] accepts:
    the body of a server's [Stats_reply]. *)
val stats : (string -> bool) -> (string * int) list
