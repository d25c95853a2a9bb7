(* The fleet front tier: one process that owns no solver at all, just a
   consistent-hash ring over backend daemons.

   Data path: the server shell ([Acceptor]) hands each client frame
   over as a raw payload, the front sends it once to the ring owner of
   its content address, and the owner's reply goes back byte-for-byte
   ([Client.relay]) — the front never decodes a reply's schedule, so
   relayed replies are byte-identical to the owning backend's by
   construction and the per-reply CPU cost stays O(header). Every
   routed frame goes by the content address the backends file it
   under, from the daemon's one key function: a [Request] by
   [Daemon.cache_key], a [Reschedule] by its derived request's
   ([Daemon.reschedule_key]), so a later plain request for the edited
   adjacency finds it. Both are memoised here by the encoded request
   bytes. The front copies no schedule between shards: a solve is
   deterministic, so a key that moves to a new owner is solved there
   once.

   Failure: any I/O failure against a backend marks it dead, rebuilds
   the ring, and re-routes the request to the new owner — whose solve is
   deterministic, so the client still sees the byte-identical reply. A
   health thread probes configured backends every [health_period] and
   re-admits recovered ones.

   Backpressure: backends shed with [Reply_rejected] as before (relayed
   verbatim, retry hints noted); on top, the front bounds its own global
   in-flight count and sheds with the EWMA of recently observed backend
   hints, so a saturated fleet pushes back at the door instead of
   queueing unboundedly. *)

module C = Codec
module Obs = Mlbs_obs.Obs
module Metrics = Mlbs_obs.Metrics

type config = {
  socket_path : string option;
  tcp_port : int option;
  backends : Client.endpoint list;
  health_period : float;
}

let default_config ~backends ~socket_path =
  {
    socket_path = Some socket_path;
    tcp_port = None;
    backends;
    health_period = 1.0;
  }

let endpoint_name = function
  | Client.Unix_socket p -> "unix:" ^ p
  | Client.Tcp { host; port } -> Printf.sprintf "%s:%d" host port

(* ------------------------------ metrics ----------------------------- *)

let family = Acceptor.family "server/fleet"
let m_rebalances = Metrics.counter "server/fleet/rebalances"
let m_deaths = Metrics.counter "server/fleet/deaths"
let m_reroutes = Metrics.counter "server/fleet/reroutes"
let m_shed = Metrics.counter "server/fleet/shed"

(* ------------------------------ state ------------------------------- *)

type backend = {
  bname : string;
  bep : Client.endpoint;
  bm : Mutex.t;
  mutable bidle : Client.t list;  (* pooled, handshaken connections *)
  balive : bool Atomic.t;
  m_shard_requests : Metrics.counter;
  m_shard_hits : Metrics.counter;
}

type t = {
  fcfg : config;
  fbackends : backend array;
  rm : Mutex.t;
  mutable ring : Ring.t;
  kmemo : string Cache.t;  (* encoded request payload -> content address *)
  tmemo : Daemon.resolved Cache.t;  (* reschedule bases' generator topologies *)
  inflight : int Atomic.t;
  ewma_retry_ms : int Atomic.t;
  shell : Acceptor.t;
  mutable health : Thread.t option;
}

let stop t = Acceptor.stop t.shell
let tcp_port t = Acceptor.tcp_port t.shell

exception Backend_down

(* ----------------------- backend connections ------------------------ *)

let max_idle_conns = 16

let dial b =
  let c, _, _ = Client.connect b.bep in
  c

let borrow b =
  Mutex.lock b.bm;
  let pooled = match b.bidle with [] -> None | c :: rest -> b.bidle <- rest; Some c in
  Mutex.unlock b.bm;
  match pooled with Some c -> c | None -> dial b

let give_back b c =
  Mutex.lock b.bm;
  if List.length b.bidle < max_idle_conns then begin
    b.bidle <- c :: b.bidle;
    Mutex.unlock b.bm
  end
  else begin
    Mutex.unlock b.bm;
    Client.close c
  end

let drop_idle b =
  Mutex.lock b.bm;
  let idle = b.bidle in
  b.bidle <- [];
  Mutex.unlock b.bm;
  List.iter Client.close idle

(* ------------------------------ ring -------------------------------- *)

let rebuild_ring t =
  (* call under t.rm *)
  let alive =
    Array.to_list t.fbackends
    |> List.filter (fun b -> Atomic.get b.balive)
    |> List.map (fun b -> b.bname)
  in
  t.ring <- Ring.create alive

let mark_dead t b =
  if Atomic.exchange b.balive false then begin
    Metrics.incr m_deaths;
    Metrics.incr m_rebalances;
    Mutex.lock t.rm;
    rebuild_ring t;
    Mutex.unlock t.rm;
    drop_idle b
  end

let mark_alive t b =
  if not (Atomic.exchange b.balive true) then begin
    Metrics.incr m_rebalances;
    Mutex.lock t.rm;
    rebuild_ring t;
    Mutex.unlock t.rm
  end

let owner t key =
  Mutex.lock t.rm;
  let o = Ring.owner t.ring key in
  Mutex.unlock t.rm;
  o

let backend_named t name =
  let rec go i =
    if i >= Array.length t.fbackends then None
    else if t.fbackends.(i).bname = name then Some t.fbackends.(i)
    else go (i + 1)
  in
  go 0

(* ------------------------------- rpc -------------------------------- *)

(* One payload roundtrip against [b]. A failed pooled connection gets
   one fresh-connection retry (the backend may just have restarted);
   failing that the backend is marked dead, the ring rebuilt, and
   [Backend_down] tells the caller to re-route. *)
let rpc t b payload =
  if not (Atomic.get b.balive) then raise Backend_down;
  let once ~fresh =
    match (if fresh then dial b else borrow b) with
    | exception _ -> None
    | c -> (
        match Client.relay c payload with
        | reply ->
            give_back b c;
            Some reply
        | exception _ ->
            Client.close c;
            None)
  in
  match once ~fresh:false with
  | Some reply -> reply
  | None -> (
      match once ~fresh:true with
      | Some reply -> reply
      | None ->
          mark_dead t b;
          raise Backend_down)

(* --------------------------- backpressure --------------------------- *)

let shed_hint t =
  match Atomic.get t.ewma_retry_ms with 0 -> 10 | ms -> max 5 (min 5000 ms)

let encode_error msg =
  Metrics.incr family.errors;
  C.encode (C.Reply_error msg)

(* Account the reply the client is about to see, and return it. A hit
   in the answering shard's cache counts as that shard's. *)
let record_reply t b reply =
  (match C.reply_view reply with
  | C.View_ok { cache_hit } ->
      Metrics.incr family.replies_ok;
      if cache_hit then Metrics.incr b.m_shard_hits
  | C.View_rejected { retry_after_ms } ->
      Metrics.incr family.rejected;
      Acceptor.note_ewma t.ewma_retry_ms retry_after_ms
  | C.View_error _ -> Metrics.incr family.errors
  | C.View_other _ -> ());
  reply

(* ------------------------------ routing ----------------------------- *)

(* Relay an opaque payload to [key]'s owner, verbatim, with death-driven
   re-route: [rpc] raises [Backend_down] after it rebuilt the ring, and
   the next pass asks the new owner. *)
let serve_routed t ~payload ~key =
  let rec go tries =
    if tries <= 0 then encode_error "no backend available"
    else
      match owner t key with
      | None -> encode_error "no backends alive"
      | Some oname -> (
          match backend_named t oname with
          | None -> encode_error "no backend available"
          | Some b -> (
              Metrics.incr b.m_shard_requests;
              match rpc t b payload with
              | reply -> record_reply t b reply
              | exception Backend_down ->
                  Metrics.incr m_reroutes;
                  go (tries - 1)))
  in
  go (Array.length t.fbackends + 1)

(* --------------------------- content keys --------------------------- *)

(* [Daemon.cache_key] resolves the topology: for generator requests it
   samples a deployment (resampling until connected), picks the source
   and digests the network — milliseconds at n = 300, dominated by the
   sampling, against a sub-microsecond table lookup. So memoise it on
   the encoded request bytes — the canonical encoding makes equal
   requests equal keys. *)
let memo_key t ~payload key =
  match Cache.find t.kmemo payload with
  | Some k -> k
  | None ->
      let k = key () in
      Cache.add t.kmemo payload k;
      k

(* ---------------------------- admission ----------------------------- *)

(* The global in-flight cap: beyond it the front sheds with a retry
   hint. *)
let max_inflight = 256

let with_admission t f =
  let cur = Atomic.fetch_and_add t.inflight 1 in
  Fun.protect
    ~finally:(fun () -> ignore (Atomic.fetch_and_add t.inflight (-1)))
    (fun () ->
      if cur >= max_inflight then begin
        Metrics.incr m_shed;
        Metrics.incr family.rejected;
        C.encode (C.Reply_rejected { retry_after_ms = shed_hint t })
      end
      else f ())

(* ------------------------------ stats ------------------------------- *)

let is_fleet name = String.starts_with ~prefix:"server/fleet/" name

let add_kv tbl (k, v) =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let fleet_stats t =
  let tbl = Hashtbl.create 64 in
  (* The front's own view: only its fleet counters — backend-side
     server/* totals come from the backends themselves below (and when a
     backend shares this process's registry, skipping fleet/* there
     avoids double counting). *)
  List.iter (add_kv tbl) (Acceptor.stats is_fleet);
  Array.iter
    (fun b ->
      if Atomic.get b.balive then
        match rpc t b (C.encode C.Stats_request) with
        | exception Backend_down -> ()
        | reply -> (
            match C.decode reply with
            | C.Stats_reply kvs ->
                List.iter (fun kv -> if not (is_fleet (fst kv)) then add_kv tbl kv) kvs
            | _ -> ()
            | exception C.Malformed _ -> ()))
    t.fbackends;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* ------------------------------ frames ------------------------------ *)

(* Every frame but the shell's [Hello] and [Shutdown]. A routed frame
   resolves its routing key, then passes admission. *)
let handle t payload =
  let route key =
    match memo_key t ~payload key with
    | exception e -> encode_error (Printexc.to_string e)
    | key -> with_admission t (fun () -> serve_routed t ~payload ~key)
  in
  (* As in the daemon, [request_us] times the solve frames only. *)
  let timed f =
    Metrics.incr family.requests;
    let t0 = Obs.now_us () in
    let reply = f () in
    Metrics.observe family.request_us (int_of_float (Obs.now_us () -. t0));
    reply
  in
  match C.decode payload with
  | C.Request req -> timed (fun () -> route (fun () -> Daemon.cache_key req))
  | C.Reschedule { base; delta } ->
      (* Routed by the derived request's address, memoised by the
         reschedule's bytes; every reschedule of one base resolves that
         base from [tmemo]. *)
      timed (fun () -> route (fun () -> Daemon.reschedule_key ~memo:t.tmemo base delta))
  | C.Stats_request -> C.encode (C.Stats_reply (fleet_stats t))
  | _ -> encode_error "unexpected message from client"

(* ------------------------------ health ------------------------------ *)

let probe b =
  match dial b with
  | c ->
      give_back b c;
      true
  | exception _ -> false

let health_loop t =
  let rec nap d =
    if d > 0. && not (Acceptor.stopping t.shell) then begin
      Thread.delay (min 0.05 d);
      nap (d -. 0.05)
    end
  in
  let rec loop () =
    if not (Acceptor.stopping t.shell) then begin
      Array.iter
        (fun b ->
          let ok = probe b in
          if ok && not (Atomic.get b.balive) then mark_alive t b
          else if (not ok) && Atomic.get b.balive then mark_dead t b)
        t.fbackends;
      nap t.fcfg.health_period;
      loop ()
    end
  in
  loop ()

(* ---------------------------- lifecycle ----------------------------- *)

let start cfg =
  if cfg.backends = [] then failwith "Fleet.start: no backends configured";
  let shell = Acceptor.bind ~socket_path:cfg.socket_path ~tcp_port:cfg.tcp_port family in
  let fbackends =
    Array.of_list
      (List.mapi
         (fun i ep ->
           {
             bname = endpoint_name ep;
             bep = ep;
             bm = Mutex.create ();
             bidle = [];
             balive = Atomic.make false;
             m_shard_requests =
               Metrics.counter (Printf.sprintf "server/fleet/shard%d/requests" i);
             m_shard_hits = Metrics.counter (Printf.sprintf "server/fleet/shard%d/hits" i);
           })
         cfg.backends)
  in
  let t =
    {
      fcfg = cfg;
      fbackends;
      rm = Mutex.create ();
      ring = Ring.create [];
      kmemo = Cache.create ~metrics_prefix:"server/fleet/keymemo" ~capacity:512 ();
      tmemo = Cache.create ~metrics_prefix:"server/fleet/topo" ~capacity:64 ();
      inflight = Atomic.make 0;
      ewma_retry_ms = Atomic.make 0;
      shell;
      health = None;
    }
  in
  (* Synchronous initial probe (not counted as rebalances): the first
     request must already see the live set. Backends that come up later
     are admitted by the health thread. *)
  Array.iter (fun b -> if probe b then Atomic.set b.balive true) t.fbackends;
  Mutex.lock t.rm;
  rebuild_ring t;
  Mutex.unlock t.rm;
  Acceptor.serve shell (handle t);
  t.health <- Some (Thread.create health_loop t);
  t

let wait t =
  Acceptor.wait t.shell;
  Option.iter Thread.join t.health;
  t.health <- None;
  Array.iter drop_idle t.fbackends

let run cfg = wait (start cfg)

let alive_backends t =
  Array.to_list t.fbackends
  |> List.filter (fun b -> Atomic.get b.balive)
  |> List.map (fun b -> b.bname)
