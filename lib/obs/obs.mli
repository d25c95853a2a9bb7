(** Global observability switches — the single-branch no-op fast path.

    Both {!Metrics} updates and {!Trace} spans test one of these flags
    before doing anything; with the flags off (the default) an
    instrumented call site costs one atomic load and one branch, so
    probes can sit inside the M-search and protocol inner loops without
    perturbing the BENCH_9.json timings.

    The flags are process-global: the experiment pool's worker domains
    observe an [enable] performed by the submitting domain before the
    batch is queued (publication rides the pool's own mutex as well as
    the flag's atomic). *)

(** [metrics_enabled ()] — the branch guarding every counter, gauge and
    histogram update. *)
val metrics_enabled : unit -> bool

(** [tracing_enabled ()] — the branch guarding every span record. *)
val tracing_enabled : unit -> bool

(** [enable ?metrics ?tracing ()] turns the selected subsystems on
    (both by default). The first transition into tracing captures the
    trace epoch: subsequent span timestamps are relative to it. *)
val enable : ?metrics:bool -> ?tracing:bool -> unit -> unit

(** [disable ?metrics ?tracing ()] turns the selected subsystems off
    (both by default). Recorded data is retained and can still be
    snapshotted or exported. *)
val disable : ?metrics:bool -> ?tracing:bool -> unit -> unit

(** [now_us ()] is the wall clock in microseconds — the time base of
    every span. *)
val now_us : unit -> float

(** [epoch_us ()] is the trace origin captured by the last transition
    into tracing; span timestamps are [now_us () - epoch_us ()]. *)
val epoch_us : unit -> float
