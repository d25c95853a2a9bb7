(* Global observability switches.

   Everything in this library is built around one invariant: when both
   switches are off, an instrumented hot path pays exactly one atomic
   load and one branch per probe — no allocation, no clock read, no
   table lookup — so instrumentation can live inside the search and
   protocol inner loops without moving the benchmarks.

   [metrics] and [tracing] switch independently: the metrics registry
   is cheap enough to leave on for a whole sweep, while span tracing
   reads the clock twice per span and is meant for single-scenario
   runs.

   Cross-domain publication: every configuration write (the trace
   epoch, ring capacities, …) happens before the corresponding flag is
   set, and instrumented code reads the flag first, so the atomics
   provide the necessary release/acquire edge for the plain fields
   behind them. *)

let metrics_flag = Atomic.make false
let tracing_flag = Atomic.make false

let metrics_enabled () = Atomic.get metrics_flag
let tracing_enabled () = Atomic.get tracing_flag

(* Wall-clock microseconds. Spans subtract the epoch captured at
   [enable] so trace timestamps start near zero (Perfetto renders
   absolute epochs as year-52k otherwise). *)
let now_us () = Unix.gettimeofday () *. 1e6

let epoch = ref 0.
let epoch_us () = !epoch

let enable ?(metrics = true) ?(tracing = true) () =
  if tracing && not (Atomic.get tracing_flag) then epoch := now_us ();
  if metrics then Atomic.set metrics_flag true;
  if tracing then Atomic.set tracing_flag true

let disable ?(metrics = true) ?(tracing = true) () =
  if metrics then Atomic.set metrics_flag false;
  if tracing then Atomic.set tracing_flag false
