(** Client side of the scheduling service: connect, handshake, send
    requests, read replies. One [t] is one connection; it is not
    thread-safe — use one connection per thread (as [mlbs loadgen]
    does). *)

type t

(** Where the daemon listens. *)
type endpoint = Unix_socket of string | Tcp of { host : string; port : int }

(** [connect ep] opens the connection and performs the Hello handshake.
    Returns the daemon's protocol, build version, and whether they match
    this client's. Raises [Failure] when the daemon speaks a different
    protocol, [Unix.Unix_error] when nobody is listening. *)
val connect : endpoint -> t * [ `Version of string ] * [ `Match of bool ]

(** The daemon's reply to one solve request. *)
type outcome =
  | Ok of Codec.ok_reply
  | Rejected of { retry_after_ms : int }  (** queue full — shed *)
  | Error of string

(** [request t req] sends one solve request and waits for the reply. *)
val request : t -> Codec.request -> outcome

(** [request_retry ?attempts t req] is [request], sleeping the daemon's
    [retry_after_ms] hint and retrying after each [Rejected] — at most
    [attempts] (default 5) sends in total. The last outcome is returned
    (possibly still [Rejected]). *)
val request_retry : ?attempts:int -> t -> Codec.request -> outcome

(** [reschedule t ~base ~delta] asks the daemon to serve the topology
    obtained by applying [delta] to [base]'s resolved graph — answered
    as, and byte-identical to, a plain {!request} for
    {!Daemon.derived_request}[ base delta]. *)
val reschedule : t -> base:Codec.request -> delta:Codec.delta -> outcome

(** [reschedule_retry ?attempts t ~base ~delta] retries like
    {!request_retry}. *)
val reschedule_retry : ?attempts:int -> t -> base:Codec.request -> delta:Codec.delta -> outcome

(** [peek t req] probes the server's schedule cache without solving
    (protocol v3): [`Hit] carries the cached reply ([cache_hit = true]),
    [`Miss] means the server does not hold it. The fleet's fill path and
    the tests use this to observe cache contents over the wire. *)
val peek :
  t -> Codec.request -> [ `Hit of Codec.ok_reply | `Miss | `Error of string ]

(** [put t ~req ~stats ~schedule] files a finished reply under [req]'s
    content address on the server (peer cache-fill; protocol v3).
    [version] (default 0) is the schedule version the entry carries;
    the server installs monotonically. *)
val put :
  t ->
  ?version:int ->
  req:Codec.request ->
  stats:Codec.stats ->
  schedule:Mlbs_core.Schedule.t ->
  unit ->
  (unit, string) result

(** [stats t] fetches the daemon's [server/…] metric snapshot. *)
val stats : t -> (string * int) list

(** [shutdown t] asks the daemon to stop and waits for the ack. *)
val shutdown : t -> unit

(** [close t] closes the connection (idempotent). *)
val close : t -> unit
