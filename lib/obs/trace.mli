(** Structured span tracing into per-domain ring buffers.

    Spans are nestable (recorded as complete events on close, so
    nesting falls out of timestamps) and bounded: each domain owns a
    fixed-capacity ring that overwrites its oldest events when full —
    a long run always keeps the newest spans. Recording is guarded by
    {!Obs.tracing_enabled}; disabled, a span is one branch plus the
    wrapped call.

    Export via {!Export.dump} (a Perfetto-loadable trace plus a JSONL
    event log). *)

type ev = {
  name : string;
  cat : string;  (** coarse grouping: "search", "proto", "pool", … *)
  ts_us : float;  (** start, microseconds since the trace epoch *)
  dur_us : float;
  tid : int;  (** recording domain's id — Perfetto renders one track per tid *)
  arg : int;  (** free numeric payload (slot number, chunk index, …) *)
}

(** [with_span ?arg ~cat name f] runs [f ()] inside a span; the span is
    recorded when [f] returns or raises. *)
val with_span : ?arg:int -> cat:string -> string -> (unit -> 'a) -> 'a

(** [instant ?arg ~cat name] records a zero-duration event. *)
val instant : ?arg:int -> cat:string -> string -> unit

(** [complete ?arg ~cat ~name ~t0_us ~dur_us ()] records a span whose
    bounds the caller already measured ([t0_us] from {!Obs.now_us}) —
    for instrumentation that times work anyway (pool chunks). *)
val complete : ?arg:int -> cat:string -> name:string -> t0_us:float -> dur_us:float -> unit -> unit

(** [events ()] merges every domain's ring, oldest first (sorted by
    timestamp). Call at a quiescent point. *)
val events : unit -> ev list

(** [set_capacity n] sets the per-domain ring capacity for rings
    created afterwards; call {!reset} to re-size existing rings.
    Default [32768]. *)
val set_capacity : int -> unit

val capacity : unit -> int

(** [reset ()] empties every ring and applies the current capacity. *)
val reset : unit -> unit
