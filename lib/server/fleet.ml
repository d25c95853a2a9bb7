(* The fleet front tier: one process that owns no solver at all, just a
   consistent-hash ring over backend daemons.

   Data path: the server shell ([Acceptor]) hands each client frame
   over as a raw payload, and backend replies go back byte-for-byte
   ([Client.relay]) — the front never decodes a reply's schedule outside
   the rare fill event, so relayed replies are byte-identical to the
   owning backend's by construction and the per-reply CPU cost stays
   O(header). A [Request] is routed by its content address (the
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
}

let default_config ~backends ~socket_path =
  {
    socket_path = Some socket_path;
    tcp_port = None;
    backends;
    replicas = 64;
    health_period = 1.0;
    max_inflight = 256;
  }

let endpoint_name = function
  | Client.Unix_socket p -> "unix:" ^ p
  | Client.Tcp { host; port } -> Printf.sprintf "%s:%d" host port

(* ------------------------------ metrics ----------------------------- *)

let family = Acceptor.family "server/fleet"
let m_fill_hits = Metrics.counter "server/fleet/fill_hits"
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

(* Account the reply the client is about to see, and return it. [from]
   is the shard that answered, when its own cache hit counts as its. *)
let record_reply t ?from reply =
  (match C.reply_view reply with
  | C.View_ok { cache_hit; _ } ->
      Metrics.incr family.replies_ok;
      if cache_hit then Option.iter (fun b -> Metrics.incr b.m_shard_hits) from
  | C.View_rejected { retry_after_ms } ->
      Metrics.incr family.rejected;
      Acceptor.note_ewma t.ewma_retry_ms retry_after_ms
  | C.View_error _ -> Metrics.incr family.errors
  | C.View_peek_miss | C.View_other _ -> ());
  reply

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
              Metrics.incr b.m_shard_requests;
              match attempt b succ with
              | reply -> reply
              | exception Backend_down ->
                  Metrics.incr m_reroutes;
                  go (tries - 1)))
  in
  go (Array.length t.fbackends + 1)

(* Reschedule / client-peek / client-put, and a plain request's solve:
   relayed to the owner verbatim. *)
let relay t b payload = record_reply t ~from:b (rpc t b payload)
let serve_routed t ~payload ~key = routed t ~key (fun b _succ -> relay t b payload)

(* A plain [Request]: peek-owner / fill-from-successor / solve-on-owner. *)
let serve_request t ~payload ~key =
  routed t ~key (fun b succ ->
      match (match succ with Some s when s <> b.bname -> backend_named t s | _ -> None) with
      | None -> relay t b payload
      | Some sb -> (
          let peek = C.peek_of_request_payload payload in
          let reply = rpc t b peek in
          match C.reply_view reply with
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
              | None -> relay t b payload
              | Some sreply ->
                  Metrics.incr m_fill_hits;
                  (* Warm the owner so the next request is local. Decode
                     only here, on the rare fill event. *)
                  (match (C.decode sreply, C.decode payload) with
                  | C.Reply_ok ok, C.Request req -> (
                      let put =
                        C.Put
                          { req; version = ok.C.version; stats = ok.C.stats; schedule = ok.C.schedule }
                      in
                      try ignore (rpc t b (C.encode put)) with Backend_down -> ())
                  | _ -> ());
                  record_reply t sreply)
          | _ -> record_reply t ~from:b reply))

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
  let route serve key =
    match key () with
    | exception e -> encode_error (Printexc.to_string e)
    | key -> with_admission t (fun () -> serve t ~payload ~key)
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
  | C.Request req ->
      timed (fun () -> route serve_request (fun () -> key_of_request_payload t ~payload req))
  | C.Reschedule { base; delta } ->
      (* Routed by the derived request's address, memoised by the
         reschedule's bytes; every reschedule of one base resolves that
         base from [tmemo]. *)
      timed (fun () ->
          route serve_routed (fun () ->
              memo_key t ~payload (fun () -> Daemon.reschedule_key ~memo:t.tmemo base delta)))
  | C.Peek req | C.Put { req; _ } ->
      (* A client-side Peek or Put: forward to the owner. *)
      route serve_routed (fun () ->
          key_of_request_payload t ~payload:(C.encode (C.Request req)) req)
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
      ring = Ring.create ~replicas:cfg.replicas [];
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
