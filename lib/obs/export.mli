(** Exporters for {!Trace} events and {!Metrics} snapshots.

    Output is canonical (sorted metrics, fixed field order), so runs
    with equal counters produce byte-identical files — the property the
    jobs-determinism gate diffs. *)

(** [jsonl_path "x.trace.json"] is ["x.trace.jsonl"] — where {!dump}
    puts the event log next to a trace file. *)
val jsonl_path : string -> string

(** [metrics_object snap] renders a snapshot as a JSON object
    ([{"schema": …, "counters": …, "gauges": …, "histograms": …}]). *)
val metrics_object : (string * Metrics.value) list -> string

(** [dump ?trace_file ?metrics_file ()] writes whichever artifacts were
    requested: the Trace Event Format JSON ("complete" events, µs
    timestamps) that Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) and chrome://tracing
    load directly, plus its JSONL sibling (one event object per line),
    and the metrics JSON ({!metrics_object}) of a fresh snapshot. *)
val dump : ?trace_file:string -> ?metrics_file:string -> unit -> unit

(** [with_files ?trace_file ?metrics_file f] runs [f ()] with the
    requested artifacts recorded: span tracing and/or the metrics
    registry are enabled (and reset) around the call, and {!dump}
    writes the files when [f] returns — or raises, so a failing run
    still leaves what it recorded. With neither file this is exactly
    [f ()]. *)
val with_files : ?trace_file:string -> ?metrics_file:string -> (unit -> 'a) -> 'a
