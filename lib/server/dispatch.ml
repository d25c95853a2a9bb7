(* Bounded admission queue + batching dispatcher, extracted from Daemon
   so any component that owns a pool of solver domains can reuse it.

   One dispatcher thread drains the queue in batches of at most the pool
   width, runs each ticket's closure on a pool worker, hands the result
   to the ticket's [on_done] callback (the daemon inserts into its
   schedule cache there), and wakes the connection thread blocked in
   [await]. Admission is all-or-nothing at the door: a full queue sheds
   with the current depth so the caller can compute a retry hint, and a
   draining queue refuses new work. *)

module Pool = Mlbs_util.Pool
module Metrics = Mlbs_obs.Metrics

let m_batches = Metrics.counter "server/batches"
let g_queue_depth = Metrics.gauge "server/queue_depth"

type 'a ticket = {
  trun : unit -> 'a;
  ton_done : ('a, string) result -> unit;
  tm : Mutex.t;
  tcv : Condition.t;
  mutable tresult : ('a, string) result option;
}

type 'a t = {
  pool : Pool.t;
  capacity : int;
  qm : Mutex.t;
  qcv : Condition.t;
  q : 'a ticket Queue.t;
  stop_requested : bool Atomic.t;
  mutable draining_done : bool;
  mutable thread : Thread.t option;
}

let create ~pool ~capacity =
  {
    pool;
    capacity;
    qm = Mutex.create ();
    qcv = Condition.create ();
    q = Queue.create ();
    stop_requested = Atomic.make false;
    draining_done = false;
    thread = None;
  }

let run_ticket tk = try Ok (tk.trun ()) with e -> Error (Printexc.to_string e)

let rec loop t =
  Mutex.lock t.qm;
  while Queue.is_empty t.q && not (Atomic.get t.stop_requested) do
    Condition.wait t.qcv t.qm
  done;
  if Queue.is_empty t.q then begin
    (* Drained and stopping: [submit] observes [draining_done] under
       the same mutex, so no ticket can slip in after this point. *)
    t.draining_done <- true;
    Mutex.unlock t.qm
  end
  else begin
    let batch_n = min (Pool.size t.pool) (Queue.length t.q) in
    let batch = Array.init batch_n (fun _ -> Queue.pop t.q) in
    Metrics.set g_queue_depth (Queue.length t.q);
    Mutex.unlock t.qm;
    Metrics.incr m_batches;
    let results = Pool.map_on t.pool run_ticket batch in
    Array.iteri
      (fun i tk ->
        (try tk.ton_done results.(i) with _ -> ());
        Mutex.lock tk.tm;
        tk.tresult <- Some results.(i);
        Condition.signal tk.tcv;
        Mutex.unlock tk.tm)
      batch;
    loop t
  end

let submit t ?(on_done = fun _ -> ()) f =
  Mutex.lock t.qm;
  if t.draining_done || Atomic.get t.stop_requested then begin
    Mutex.unlock t.qm;
    Error `Closing
  end
  else if Queue.length t.q >= t.capacity then begin
    let depth = Queue.length t.q in
    Mutex.unlock t.qm;
    Error (`Shed depth)
  end
  else begin
    let tk =
      { trun = f; ton_done = on_done; tm = Mutex.create (); tcv = Condition.create ();
        tresult = None }
    in
    Queue.add tk t.q;
    Metrics.set g_queue_depth (Queue.length t.q);
    Condition.signal t.qcv;
    Mutex.unlock t.qm;
    Ok tk
  end

let await tk =
  Mutex.lock tk.tm;
  while tk.tresult = None do
    Condition.wait tk.tcv tk.tm
  done;
  let r = Option.get tk.tresult in
  Mutex.unlock tk.tm;
  r

let start t =
  if t.thread <> None then invalid_arg "Dispatch.start: already started";
  t.thread <- Some (Thread.create loop t)

let stop t = Atomic.set t.stop_requested true

let join t =
  (* Wake the dispatcher from a normal (non-signal) context. *)
  Mutex.lock t.qm;
  Condition.broadcast t.qcv;
  Mutex.unlock t.qm;
  Option.iter Thread.join t.thread
