(* Fixed-size domain pool with a mutex/condvar work queue.

   A pool of [jobs] means [jobs - 1] spawned worker domains plus the
   submitting domain itself: a batch is split into at most [jobs]
   contiguous chunks, the submitter runs chunk 0 inline, workers pull
   the rest, and the submitter helps drain the queue before blocking on
   the batch's [pending] counter — so [jobs] is the number of domains
   doing work, never [jobs + 1], and per-item queue traffic collapses
   to per-chunk traffic.

   Chunk tasks record each item's result (or exception) into the
   submitting batch's slot array, so the queue stays monomorphic and one
   pool serves batches of any type. Mutation of the result slots happens
   in worker domains and is read by the submitter only after observing
   [pending = 0] under the pool mutex, which establishes the necessary
   happens-before edge. Results are indexed by input position — never by
   completion order — so [map] output is byte-identical at any worker
   count. *)

type t = {
  jobs : int;
  lock : Mutex.t;
  work : Condition.t;  (* signalled when the queue gains a task, or on shutdown *)
  drained : Condition.t;  (* signalled when a batch's last chunk finishes *)
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Observability: batch/chunk counts, a chunk-latency histogram (µs)
   and per-domain busy time land in the metrics registry; each chunk
   also records a span on its executing domain's track, which is where
   per-worker utilisation becomes visible in the trace. All of it is
   behind the registry's disabled branch. *)
let m_batches = Mlbs_obs.Metrics.counter "pool/batches"
let m_chunks = Mlbs_obs.Metrics.counter "pool/chunks"
let m_busy_us = Mlbs_obs.Metrics.counter "pool/busy_us"
let m_chunk_us = Mlbs_obs.Metrics.histogram "pool/chunk_us"

let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.work t.lock
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.lock (* stopping *)
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.lock;
    task ();
    worker_loop t
  end

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      lock = Mutex.create ();
      work = Condition.create ();
      drained = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [];
    }
  in
  (* Spawned workers are capped at the hardware's parallelism, not just
     at [jobs - 1]: a compute-active domain beyond the core count cannot
     run concurrently, but every minor collection still pays a
     stop-the-world handshake with it, so oversubscription turns pure
     overhead. [jobs] above the cap still shapes chunking identically —
     the submitter drains the surplus chunks itself in queue order, and
     results are indexed by input position — so output stays
     byte-identical; only the domain count adapts to the machine. *)
  let spawned = max 0 (min jobs (default_jobs ()) - 1) in
  if spawned > 0 then
    t.workers <- List.init spawned (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = t.jobs

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  let workers = t.workers in
  t.workers <- [];
  List.iter Domain.join workers

(* Extract in index order so the lowest-indexed exception wins —
   deterministic regardless of which domain hit it first. *)
let collect results =
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> assert false (* batch drained: every slot was written *))
    results

(* Every item still runs — an exception poisons its slot, not its
   chunk — preserving the all-slots-written invariant [collect] needs. *)
let run_chunk f input results lo hi =
  for i = lo to hi - 1 do
    results.(i) <- Some (try Ok (f input.(i)) with e -> Error e)
  done

(* One clock pair per chunk (not per item) when observability is on:
   the duration feeds both the span and the latency histogram. *)
let run_chunk_obs c f input results lo hi =
  if not (Mlbs_obs.Obs.metrics_enabled () || Mlbs_obs.Obs.tracing_enabled ()) then
    run_chunk f input results lo hi
  else begin
    let t0 = Mlbs_obs.Obs.now_us () in
    run_chunk f input results lo hi;
    let dt = Mlbs_obs.Obs.now_us () -. t0 in
    Mlbs_obs.Metrics.incr m_chunks;
    Mlbs_obs.Metrics.add m_busy_us (int_of_float dt);
    Mlbs_obs.Metrics.observe m_chunk_us (int_of_float dt);
    Mlbs_obs.Trace.complete ~arg:c ~cat:"pool" ~name:"chunk" ~t0_us:t0 ~dur_us:dt ()
  end

let chunk_bounds ~len ~chunks c = (c * len / chunks, (c + 1) * len / chunks)

let map_on t f input =
  let len = Array.length input in
  if len = 0 then [||]
  else if t.jobs = 1 || len = 1 then Array.map f input
  else begin
    let results = Array.make len None in
    let chunks = min t.jobs len in
    Mlbs_obs.Metrics.incr m_batches;
    let pending = ref (chunks - 1) in
    Mutex.lock t.lock;
    if t.stopping then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool.map_on: pool is shut down"
    end;
    for c = 1 to chunks - 1 do
      let lo, hi = chunk_bounds ~len ~chunks c in
      Queue.add
        (fun () ->
          run_chunk_obs c f input results lo hi;
          Mutex.lock t.lock;
          decr pending;
          if !pending = 0 then Condition.broadcast t.drained;
          Mutex.unlock t.lock)
        t.queue
    done;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (* Chunk 0 inline on the submitting domain. *)
    let lo0, hi0 = chunk_bounds ~len ~chunks 0 in
    run_chunk_obs 0 f input results lo0 hi0;
    (* Help drain (our chunks or a concurrent batch's — either keeps a
       domain busy and makes nested [map_on] deadlock-free), then wait. *)
    Mutex.lock t.lock;
    while !pending > 0 do
      match Queue.take_opt t.queue with
      | Some task ->
          Mutex.unlock t.lock;
          task ();
          Mutex.lock t.lock
      | None -> Condition.wait t.drained t.lock
    done;
    Mutex.unlock t.lock;
    collect results
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Shared warm pool: [map] used to create and tear down a pool (and    *)
(* its domains) per call, which both cost milliseconds per batch and   *)
(* threw away every domain-local scratch between batches. One process- *)
(* wide pool per worker count now persists across batches and is       *)
(* joined at exit.                                                     *)
(* ------------------------------------------------------------------ *)

let shared_lock = Mutex.create ()
let shared : t option ref = ref None
let exit_hook = ref false

let get_shared ~jobs =
  Mutex.lock shared_lock;
  let t =
    match !shared with
    | Some t when t.jobs = jobs && not t.stopping -> t
    | prev ->
        (match prev with Some old -> shutdown old | None -> ());
        let t = create ~jobs in
        shared := Some t;
        if not !exit_hook then begin
          exit_hook := true;
          at_exit (fun () ->
              Mutex.lock shared_lock;
              let t = !shared in
              shared := None;
              Mutex.unlock shared_lock;
              Option.iter shutdown t)
        end;
        t
  in
  Mutex.unlock shared_lock;
  t

let map ~jobs f input =
  if jobs <= 1 || Array.length input <= 1 then Array.map f input
  else map_on (get_shared ~jobs) f input

let map_list ~jobs f xs = Array.to_list (map ~jobs f (Array.of_list xs))
