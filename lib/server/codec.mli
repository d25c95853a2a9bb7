(** Wire protocol of the scheduling service: length-prefixed binary
    frames over a Unix-domain or TCP stream.

    Frame layout: a 4-byte big-endian payload length, then the payload.
    The first payload byte is the message tag; the rest is the
    fixed-order field encoding below (big-endian integers, 8-byte IEEE
    floats, strings and lists length-prefixed). A frame longer than
    64 MiB is rejected before any allocation proportional to it,
    so a corrupt or hostile peer cannot OOM the daemon.

    The encoding is canonical: equal values encode to equal bytes,
    which is what lets the CI smoke job byte-compare served schedules
    against direct {!Mlbs_core.Scheduler} output. *)

(** Protocol revision carried in the handshake and in the header of a
    daemon's cache file; bumped on any frame layout change. Tags 12, 13
    and 15 are retired and decode as unknown. *)
val protocol_version : int

(** Scheduling policy requested for a solve; [Gopt]/[Opt] run with the
    library's default budgets (the same ones [mlbs schedule] uses). *)
type policy = Baseline | Emodel | Gopt | Opt

(** What to solve over: either generator parameters — the paper's
    deployment recipe, {!Daemon.instance}, which [mlbs schedule --n N
    --seed S] runs too — or an explicit symmetric adjacency shipped in
    the request, solved on {!Mlbs_wsn.Network.synthetic}'s geometry. *)
type topology =
  | Gen of { n : int; radius : float }
  | Adj of int list array

type request = {
  policy : policy;
  rate : int option;  (** duty-cycle rate; [None] = synchronous *)
  seed : int;  (** deployment / wake-schedule / source-selection seed *)
  topology : topology;
  source : int option;
      (** explicit source; [None] derives it (paper eccentricity window
          for [Gen], node 0 for [Adj]) *)
  start : int;  (** first transmission slot, [mlbs schedule] uses 1 *)
  model : Mlbs_phy.Interference.t;
      (** interference model to solve under (protocol v4). The content
          address ({!Daemon.cache_key}) covers it with the resolved
          network's digest, the system, policy, source and start, so
          requests differing only in model never share a cache line.
          Decoding validates the parameters and rejects a malformed
          spec with {!Malformed}. *)
}

(** A topology delta riding a {!msg.Reschedule} message: edge
    endpoints to connect / disconnect, plus full replacement
    neighbourhoods for rewired nodes — the same three lists
    {!Mlbs_graph.Graph.edit} consumes, applied in its order
    (removals, rewires in list order, additions). Node count is
    fixed; a delta never adds or deletes nodes. *)
type delta = {
  d_added : (int * int) list;
  d_removed : (int * int) list;
  d_rewired : (int * int list) list;
}

(** Per-solve statistics carried in an [Ok] reply. [search_states]
    counts the M-counter states of this solve alone, read from the
    solving domain's metrics shard, so concurrent solves report what
    each reports run alone (0 while the metrics registry is off). *)
type stats = {
  elapsed : int;
  transmissions : int;
  n_steps : int;
  search_states : int;
  solve_us : int;
}

type ok_reply = {
  trace_id : string;  (** server-side span id, greppable in the trace *)
  cache_hit : bool;
  version : int;
      (** reserved (protocol v5), always [0]: every reply carries the
          schedule {!Daemon.solve} produces. *)
  stats : stats;
  schedule : Mlbs_core.Schedule.t;
}

type msg =
  | Hello of { proto : int; version : string }
  | Hello_ack of { proto : int; version : string; version_match : bool }
  | Request of request
  | Reschedule of { base : request; delta : delta }
      (** the base request's schedule after a topology delta: the
          daemon resolves [base] (hitting its caches), applies the
          delta, and answers the plain [Request] for the edited
          adjacency. The reply is a plain [Reply_ok], cached under that
          request's content address and byte-identical to its reply. *)
  | Reply_ok of ok_reply
  | Reply_rejected of { retry_after_ms : int }
      (** admission queue full: overload is shed explicitly, retry after
          the hinted delay *)
  | Reply_error of string  (** malformed or unsatisfiable request *)
  | Stats_request
  | Stats_reply of (string * int) list
  | Shutdown
  | Shutdown_ack
  | Put of { req : request; version : int; stats : stats; schedule : Mlbs_core.Schedule.t }
      (** one entry of a daemon's [cache.frames] file: the request the
          schedule answers, its version (reserved, written as [0]; a
          daemon refuses any other) and its reply. It is a disk record
          only: a daemon answers a [Put] sent over the wire with
          [Reply_error], and a disk entry passes the daemon's replay
          gate before it is installed. *)

exception Malformed of string

(** [encode msg] is the payload bytes (no length prefix). *)
val encode : msg -> string

(** [decode payload] parses one payload; raises {!Malformed} on
    anything but a complete well-formed message. *)
val decode : string -> msg

(** [schedule_bytes s] is the canonical encoding of a schedule alone —
    the byte string loadgen and the CI smoke job compare against a
    direct scheduler run. *)
val schedule_bytes : Mlbs_core.Schedule.t -> string

(** [send fd msg] writes one frame, handling partial writes. *)
val send : Unix.file_descr -> msg -> unit

(** [recv fd] reads one frame; [None] on a clean EOF at a frame
    boundary. Raises {!Malformed} on truncation mid-frame, an oversized
    length, or a payload that does not parse. *)
val recv : Unix.file_descr -> msg option

(** {2 Raw-payload relaying}

    The fleet front tier forwards reply payloads byte-for-byte instead
    of decoding and re-encoding schedules; byte-identity of relayed
    replies is then true by construction, and the front's per-request
    CPU stays O(header), not O(schedule). *)

(** [send_payload fd payload] frames and writes an already-encoded
    payload. [send fd msg = send_payload fd (encode msg)]. *)
val send_payload : Unix.file_descr -> string -> unit

(** [recv_payload fd] reads one frame without decoding it; [None] on a
    clean EOF. Length-limit and truncation behaviour as {!recv}. *)
val recv_payload : Unix.file_descr -> string option

(** First payload byte (the message tag). Raises {!Malformed} on an
    empty payload. *)
val payload_tag : string -> int

(** A reply payload classified without decoding the schedule body. *)
type reply_view =
  | View_ok of { cache_hit : bool }
  | View_rejected of { retry_after_ms : int }
  | View_error of string
  | View_other of int  (** any other tag, returned verbatim *)

(** [reply_view payload] inspects just the tag and leading fixed fields.
    Raises {!Malformed} only when those leading bytes are truncated. *)
val reply_view : string -> reply_view
