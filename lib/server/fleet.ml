(* The fleet front tier: one process that owns no solver at all, just a
   consistent-hash ring over backend daemons.

   Data path: client frames arrive as raw payloads ([Codec.recv_payload])
   and replies are relayed byte-for-byte ([Codec.send_payload]) — the
   front never decodes a schedule, so relayed replies are byte-identical
   to the owning backend's by construction and the per-request CPU cost
   stays O(header). A [Request] is routed by its content address (the
   same [Daemon.cache_key] the backends file it under, memoised here by
   the encoded request bytes); a [Reschedule] is routed by its derived
   request's address ([Daemon.reschedule_key], memoised the same way),
   the one the owner files the answer under, so a later plain request
   for the edited graph finds it.

   Peer cache-fill: on a warm ring the front first [Peek]s the owner
   (cache-only, 1 RTT on a hit). On a miss it peeks the ring successor —
   the shard that owned the key before the last membership change — and
   on a hit there relays that reply and [Put]s the entry back to the
   owner, so the next request is local. Only after both miss does the
   owner solve.

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
  replicas : int;
  health_period : float;
  max_inflight : int;
  fill : bool;
}

let default_config ~backends ~socket_path =
  {
    socket_path = Some socket_path;
    tcp_port = None;
    backends;
    replicas = 64;
    health_period = 1.0;
    max_inflight = 256;
    fill = true;
  }

let endpoint_name = function
  | Client.Unix_socket p -> "unix:" ^ p
  | Client.Tcp { host; port } -> Printf.sprintf "%s:%d" host port

(* ------------------------------ metrics ----------------------------- *)

let m_requests = Metrics.counter "server/fleet/requests"
let m_ok = Metrics.counter "server/fleet/replies_ok"
let m_rejected = Metrics.counter "server/fleet/rejected"
let m_errors = Metrics.counter "server/fleet/errors"
let m_connections = Metrics.counter "server/fleet/connections"
let m_bad_frames = Metrics.counter "server/fleet/bad_frames"
let m_fill_hits = Metrics.counter "server/fleet/fill_hits"
let m_rebalances = Metrics.counter "server/fleet/rebalances"
let m_deaths = Metrics.counter "server/fleet/deaths"
let m_reroutes = Metrics.counter "server/fleet/reroutes"
let m_shed = Metrics.counter "server/fleet/shed"
let h_request_us = Metrics.histogram "server/fleet/request_us"

(* ------------------------------ state ------------------------------- *)

type backend = {
  bname : string;
  bep : Client.endpoint;
  bm : Mutex.t;
  mutable bidle : Unix.file_descr list;  (* pooled, handshaken connections *)
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
  stop_requested : bool Atomic.t;
  mutable listeners : Acceptor.listener list;
  mutable acceptor : Thread.t option;
  mutable health : Thread.t option;
  mutable cleaned : bool;
}

let stop t = Atomic.set t.stop_requested true
let tcp_port t = List.find_map Acceptor.port t.listeners

exception Backend_down

(* ----------------------- backend connections ------------------------ *)

let max_idle_conns = 16

let connect_backend b =
  let fd, addr =
    match b.bep with
    | Client.Unix_socket path ->
        (Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Client.Tcp { host; port } ->
        let inet =
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        (Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0, Unix.ADDR_INET (inet, port))
  in
  try
    Unix.connect fd addr;
    C.send fd (C.Hello { proto = C.protocol_version; version = Version.version });
    match C.recv fd with
    | Some (C.Hello_ack { proto; _ }) when proto = C.protocol_version -> fd
    | _ -> failwith "backend handshake failed"
  with e ->
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
    raise e

let borrow b =
  Mutex.lock b.bm;
  let pooled = match b.bidle with [] -> None | fd :: rest -> b.bidle <- rest; Some fd in
  Mutex.unlock b.bm;
  match pooled with Some fd -> fd | None -> connect_backend b

let give_back b fd =
  Mutex.lock b.bm;
  if List.length b.bidle < max_idle_conns then begin
    b.bidle <- fd :: b.bidle;
    Mutex.unlock b.bm
  end
  else begin
    Mutex.unlock b.bm;
    try Unix.close fd with Unix.Unix_error (_, _, _) -> ()
  end

let drop_idle b =
  Mutex.lock b.bm;
  let idle = b.bidle in
  b.bidle <- [];
  Mutex.unlock b.bm;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ()) idle

(* ------------------------------ ring -------------------------------- *)

let rebuild_ring t =
  (* call under t.rm *)
  let alive =
    Array.to_list t.fbackends
    |> List.filter (fun b -> Atomic.get b.balive)
    |> List.map (fun b -> b.bname)
  in
  t.ring <- Ring.create ~replicas:t.fcfg.replicas alive

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

let owner_and_successor t key =
  Mutex.lock t.rm;
  let o = Ring.owner t.ring key in
  let s = Ring.successor t.ring key in
  Mutex.unlock t.rm;
  (o, s)

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
    match (if fresh then connect_backend b else borrow b) with
    | exception _ -> None
    | fd -> (
        match
          C.send_payload fd payload;
          C.recv_payload fd
        with
        | Some reply ->
            give_back b fd;
            Some reply
        | None | (exception _) ->
            (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
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

let note_retry_ms t ms =
  let rec go () =
    let cur = Atomic.get t.ewma_retry_ms in
    let next = if cur = 0 then ms else ((7 * cur) + ms) / 8 in
    if not (Atomic.compare_and_set t.ewma_retry_ms cur next) then go ()
  in
  go ()

let shed_hint t =
  match Atomic.get t.ewma_retry_ms with 0 -> 10 | ms -> max 5 (min 5000 ms)

let encode_error msg =
  Metrics.incr m_errors;
  C.encode (C.Reply_error msg)

(* Account the reply the client is about to see. *)
let record_reply t reply =
  match C.reply_view reply with
  | C.View_ok _ -> Metrics.incr m_ok
  | C.View_rejected { retry_after_ms } ->
      Metrics.incr m_rejected;
      note_retry_ms t retry_after_ms
  | C.View_error _ -> Metrics.incr m_errors
  | C.View_peek_miss | C.View_other _ -> ()

(* ------------------------------ routing ----------------------------- *)

(* Route an opaque payload to [key]'s owner with death-driven re-route:
   [attempt] runs against the current owner and raises [Backend_down]
   (after [rpc] already rebuilt the ring) to trigger another pass. *)
let routed t ~key attempt =
  let rec go tries =
    if tries <= 0 then encode_error "no backend available"
    else
      match owner_and_successor t key with
      | None, _ -> encode_error "no backends alive"
      | Some oname, succ -> (
          match backend_named t oname with
          | None -> encode_error "no backend available"
          | Some b -> (
              match attempt b succ with
              | reply -> reply
              | exception Backend_down ->
                  Metrics.incr m_reroutes;
                  go (tries - 1)))
  in
  go (Array.length t.fbackends + 1)

(* A plain [Request]: peek-owner / fill-from-successor / solve-on-owner. *)
let serve_request t ~payload ~key =
  routed t ~key (fun b succ ->
      Metrics.incr b.m_shard_requests;
      let solve_on_owner () =
        let reply = rpc t b payload in
        (match C.reply_view reply with
        | C.View_ok { cache_hit = true; _ } -> Metrics.incr b.m_shard_hits
        | _ -> ());
        record_reply t reply;
        reply
      in
      let fill_source =
        if t.fcfg.fill then
          match succ with Some s when s <> b.bname -> backend_named t s | _ -> None
        else None
      in
      match fill_source with
      | None -> solve_on_owner ()
      | Some sb -> (
          let peek = C.peek_of_request_payload payload in
          let reply = rpc t b peek in
          match C.reply_view reply with
          | C.View_ok _ ->
              Metrics.incr b.m_shard_hits;
              record_reply t reply;
              reply
          | C.View_peek_miss -> (
              (* The successor owned this key before the last membership
                 change — ask it before paying for a solve. Its failure
                 must not fail the request, so [Backend_down] falls
                 through to the owner solve. *)
              let filled =
                match rpc t sb peek with
                | exception Backend_down -> None
                | sreply -> (
                    match C.reply_view sreply with C.View_ok _ -> Some sreply | _ -> None)
              in
              match filled with
              | None -> solve_on_owner ()
              | Some sreply ->
                  Metrics.incr m_fill_hits;
                  (* Warm the owner so the next request is local. Decode
                     only here, on the rare fill event. *)
                  (match (C.decode sreply, C.decode payload) with
                  | C.Reply_ok ok, C.Request req -> (
                      match
                        rpc t b
                          (C.encode
                             (C.Put
                                 {
                                   req;
                                   version = ok.C.version;
                                   stats = ok.C.stats;
                                   schedule = ok.C.schedule;
                                 }))
                      with
                      | _ -> ()
                      | exception Backend_down -> ())
                  | _ -> ());
                  record_reply t sreply;
                  sreply)
          | _ ->
              record_reply t reply;
              reply))

(* Reschedule / client-peek / client-put: routed to the owner verbatim. *)
let serve_routed t ~payload ~key =
  routed t ~key (fun b _succ ->
      Metrics.incr b.m_shard_requests;
      let reply = rpc t b payload in
      (match C.reply_view reply with
      | C.View_ok { cache_hit = true; _ } -> Metrics.incr b.m_shard_hits
      | _ -> ());
      record_reply t reply;
      reply)

(* --------------------------- content keys --------------------------- *)

(* [Daemon.cache_key] resolves the topology: for generator requests it
   samples a deployment (resampling until connected), picks the source
   and digests the graph — milliseconds at n = 300, dominated by the
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

let key_of_request_payload t ~payload req = memo_key t ~payload (fun () -> Daemon.cache_key req)

(* ---------------------------- admission ----------------------------- *)

let with_admission t f =
  let cur = Atomic.fetch_and_add t.inflight 1 in
  Fun.protect
    ~finally:(fun () -> ignore (Atomic.fetch_and_add t.inflight (-1)))
    (fun () ->
      if cur >= t.fcfg.max_inflight then begin
        Metrics.incr m_shed;
        Metrics.incr m_rejected;
        C.encode (C.Reply_rejected { retry_after_ms = shed_hint t })
      end
      else f ())

(* ------------------------------ stats ------------------------------- *)

let add_kv tbl (k, v) =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let fleet_stats t =
  let tbl = Hashtbl.create 64 in
  (* The front's own view: only its fleet counters — backend-side
     server/* totals come from the backends themselves below (and when a
     backend shares this process's registry, skipping fleet/* there
     avoids double counting). *)
  List.iter
    (fun (name, v) ->
      if String.length name >= 13 && String.sub name 0 13 = "server/fleet/" then
        add_kv tbl
          ( name,
            match (v : Metrics.value) with
            | Metrics.Count c -> c
            | Metrics.Level l -> l
            | Metrics.Dist { total; _ } -> total ))
    (Metrics.snapshot ());
  Array.iter
    (fun b ->
      if Atomic.get b.balive then
        match rpc t b (C.encode C.Stats_request) with
        | exception Backend_down -> ()
        | reply -> (
            match C.decode reply with
            | C.Stats_reply kvs ->
                List.iter
                  (fun (k, v) ->
                    if not (String.length k >= 13 && String.sub k 0 13 = "server/fleet/")
                    then add_kv tbl (k, v))
                  kvs
            | _ -> ()
            | exception C.Malformed _ -> ()))
    t.fbackends;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* --------------------------- connections ---------------------------- *)

let handle_conn t fd =
  Metrics.incr m_connections;
  let rec loop () =
    match C.recv_payload fd with
    | None -> ()
    | Some payload ->
        let t0 = Obs.now_us () in
        let continue = ref true in
        let reply =
          match C.payload_tag payload with
          | 1 -> (
              (* Hello: the front answers the handshake itself. *)
              match C.decode payload with
              | C.Hello { proto; version } ->
                  C.encode
                    (C.Hello_ack
                       {
                         proto = C.protocol_version;
                         version = Version.version;
                         version_match =
                           proto = C.protocol_version && version = Version.version;
                       })
              | _ -> encode_error "malformed hello")
          | 3 -> (
              Metrics.incr m_requests;
              match C.decode payload with
              | C.Request req -> (
                  match key_of_request_payload t ~payload req with
                  | exception e -> encode_error (Printexc.to_string e)
                  | key -> with_admission t (fun () -> serve_request t ~payload ~key))
              | _ -> encode_error "malformed request")
          | 11 -> (
              Metrics.incr m_requests;
              (* Routed by the derived request's address, memoised by
                 the reschedule's bytes; every reschedule of one base
                 resolves that base from [tmemo]. *)
              match C.decode payload with
              | C.Reschedule { base; delta } -> (
                  match
                    memo_key t ~payload (fun () -> Daemon.reschedule_key ~memo:t.tmemo base delta)
                  with
                  | exception e -> encode_error (Printexc.to_string e)
                  | key -> with_admission t (fun () -> serve_routed t ~payload ~key))
              | _ -> encode_error "malformed reschedule")
          | 12 | 14 -> (
              (* A client-side Peek or Put: forward to the owner. *)
              match C.decode payload with
              | C.Peek req | C.Put { req; _ } -> (
                  let req_payload = C.encode (C.Request req) in
                  match key_of_request_payload t ~payload:req_payload req with
                  | exception e -> encode_error (Printexc.to_string e)
                  | key -> with_admission t (fun () -> serve_routed t ~payload ~key))
              | _ -> encode_error "malformed peek/put")
          | 7 -> C.encode (C.Stats_reply (fleet_stats t))
          | 9 ->
              continue := false;
              stop t;
              C.encode C.Shutdown_ack
          | _ -> encode_error "unexpected message from client"
        in
        C.send_payload fd reply;
        let dt = Obs.now_us () -. t0 in
        Metrics.observe h_request_us (int_of_float dt);
        if !continue then loop ()
  in
  (try loop () with
  | C.Malformed _ ->
      Metrics.incr m_bad_frames;
      (try C.send_payload fd (C.encode (C.Reply_error "malformed frame")) with _ -> ())
  | Unix.Unix_error (_, _, _) | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* ------------------------------ health ------------------------------ *)

let probe b =
  match connect_backend b with
  | fd ->
      give_back b fd;
      true
  | exception _ -> false

let health_loop t =
  let rec nap d =
    if d > 0. && not (Atomic.get t.stop_requested) then begin
      Thread.delay (min 0.05 d);
      nap (d -. 0.05)
    end
  in
  let rec loop () =
    if not (Atomic.get t.stop_requested) then begin
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
  if cfg.socket_path = None && cfg.tcp_port = None then
    failwith "Fleet.start: no listener configured (need a socket path or TCP port)";
  if cfg.backends = [] then failwith "Fleet.start: no backends configured";
  Obs.enable ~metrics:true ~tracing:(Obs.tracing_enabled ()) ();
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
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
      ring = Ring.create ~replicas:cfg.replicas [];
      kmemo = Cache.create ~metrics_prefix:"server/fleet/keymemo" ~capacity:512 ();
      tmemo = Cache.create ~metrics_prefix:"server/fleet/topo" ~capacity:64 ();
      inflight = Atomic.make 0;
      ewma_retry_ms = Atomic.make 0;
      stop_requested = Atomic.make false;
      listeners = [];
      acceptor = None;
      health = None;
      cleaned = false;
    }
  in
  (* Synchronous initial probe (not counted as rebalances): the first
     request must already see the live set. Backends that come up later
     are admitted by the health thread. *)
  Array.iter (fun b -> if probe b then Atomic.set b.balive true) t.fbackends;
  Mutex.lock t.rm;
  rebuild_ring t;
  Mutex.unlock t.rm;
  let listeners =
    (match cfg.socket_path with Some p -> [ Acceptor.bind_unix p ] | None -> [])
    @ (match cfg.tcp_port with Some p -> [ Acceptor.bind_tcp ~port:p ] | None -> [])
  in
  t.listeners <- listeners;
  t.acceptor <-
    Some
      (Thread.create
         (fun () ->
           Acceptor.serve t.listeners
             ~stopped:(fun () -> Atomic.get t.stop_requested)
             ~handle:(handle_conn t))
         ());
  t.health <- Some (Thread.create health_loop t);
  t

let cleanup t =
  if not t.cleaned then begin
    t.cleaned <- true;
    Acceptor.close_all t.listeners;
    Array.iter drop_idle t.fbackends
  end

let wait t =
  (* Poll so signal handlers calling [stop] get to run (cf. Daemon). *)
  while not (Atomic.get t.stop_requested) do
    Thread.delay 0.05
  done;
  Option.iter Thread.join t.acceptor;
  Option.iter Thread.join t.health;
  cleanup t

let run cfg = wait (start cfg)

let alive_backends t =
  Array.to_list t.fbackends
  |> List.filter (fun b -> Atomic.get b.balive)
  |> List.map (fun b -> b.bname)
