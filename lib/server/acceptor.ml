(* The one server shell: bind Unix-domain / loopback-TCP listeners, run
   a select-based accept loop handing each connection to its own
   thread, run the frame loop there (handshake, shutdown and malformed
   frames answered here, everything else by the server's handler), and
   tear down. *)

module C = Codec
module Obs = Mlbs_obs.Obs
module Metrics = Mlbs_obs.Metrics

type family = {
  requests : Metrics.counter;
  replies_ok : Metrics.counter;
  rejected : Metrics.counter;
  errors : Metrics.counter;
  connections : Metrics.counter;
  bad_frames : Metrics.counter;
  request_us : Metrics.histogram;
}

let family prefix =
  let c name = Metrics.counter (prefix ^ "/" ^ name) in
  {
    requests = c "requests";
    replies_ok = c "replies_ok";
    rejected = c "rejected";
    errors = c "errors";
    connections = c "connections";
    bad_frames = c "bad_frames";
    request_us = Metrics.histogram (prefix ^ "/request_us");
  }

type listener = { afd : Unix.file_descr; apath : string option (* to unlink on close *) }

type t = {
  fam : family;
  mutable listeners : listener list;  (* [] once closed *)
  port : int option;  (* actual bound TCP port (resolves port 0) *)
  stop_requested : bool Atomic.t;
  mutable acceptor : Thread.t option;
}

(* ----------------------------- listeners ---------------------------- *)

(* Is something actually accepting on [path]? A crashed server leaves
   its socket file behind; bind would then fail with EADDRINUSE even
   though nobody is home. Probe with a connect: only an accepting
   listener completes it, so a successful probe means a live server we
   must not clobber, and any connect failure (ECONNREFUSED for the
   classic stale-file case) means the file is dead weight. *)
let unix_socket_live path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let live =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> true
    | exception Unix.Unix_error (_, _, _) -> false
  in
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
  live

let listen_on fd addr =
  try
    (match addr with
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Unix.ADDR_UNIX _ -> ());
    Unix.bind fd addr;
    Unix.listen fd 64
  with e ->
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
    raise e

let bind_unix path =
  if Sys.file_exists path then begin
    if unix_socket_live path then
      failwith (Printf.sprintf "%s: a server is already listening on this socket" path);
    try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  end;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  listen_on fd (Unix.ADDR_UNIX path);
  { afd = fd; apath = Some path }

let bind_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  listen_on fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let bound = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port in
  ({ afd = fd; apath = None }, bound)

let close_listener l =
  (try Unix.close l.afd with Unix.Unix_error (_, _, _) -> ());
  Option.iter (fun p -> try Unix.unlink p with Unix.Unix_error (_, _, _) -> ()) l.apath

let bind ~socket_path ~tcp_port fam =
  if socket_path = None && tcp_port = None then
    failwith "no listener configured (need a socket path or TCP port)";
  (* The registry is the server's own observability surface; tracing
     stays at whatever the caller (Telemetry.with_config) selected. *)
  Obs.enable ~metrics:true ~tracing:(Obs.tracing_enabled ()) ();
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let unix = Option.map bind_unix socket_path in
  let tcp =
    try Option.map bind_tcp tcp_port
    with e ->
      Option.iter close_listener unix;
      raise e
  in
  {
    fam;
    listeners = Option.to_list unix @ Option.to_list (Option.map fst tcp);
    port = Option.map snd tcp;
    stop_requested = Atomic.make false;
    acceptor = None;
  }

(* ---------------------------- connections --------------------------- *)

let stop t = Atomic.set t.stop_requested true
let stopping t = Atomic.get t.stop_requested

let hello_ack ~proto ~version =
  C.Hello_ack
    {
      proto = C.protocol_version;
      version = Version.version;
      version_match = proto = C.protocol_version && version = Version.version;
    }

let handle_conn t handle fd =
  Metrics.incr t.fam.connections;
  let rec loop () =
    match C.recv_payload fd with
    | None -> ()
    | Some payload -> (
        match C.payload_tag payload with
        | 1 | 9 -> (
            (* Hello and Shutdown: the shell's own frames. *)
            match C.decode payload with
            | C.Hello { proto; version } ->
                C.send fd (hello_ack ~proto ~version);
                loop ()
            | _ ->
                C.send fd C.Shutdown_ack;
                stop t)
        | _ ->
            C.send_payload fd (handle payload);
            loop ())
  in
  (try loop () with
  | C.Malformed _ ->
      Metrics.incr t.fam.bad_frames;
      (try C.send fd (C.Reply_error "malformed frame") with _ -> ())
  | Unix.Unix_error (_, _, _) | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let serve t handle =
  let fds = List.map (fun l -> l.afd) t.listeners in
  let rec loop () =
    if not (stopping t) then begin
      (* The timeout bounds how long a stop request can go unnoticed. *)
      (match Unix.select fds [] [] 0.25 with
      | ready, _, _ ->
          List.iter
            (fun lfd ->
              match Unix.accept ~cloexec:true lfd with
              | fd, _ -> ignore (Thread.create (handle_conn t handle) fd)
              | exception Unix.Unix_error (_, _, _) -> ())
            ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  t.acceptor <- Some (Thread.create loop ())

let wait t =
  (* Poll rather than block in a join: the waiting thread keeps
     executing OCaml code, so a SIGINT/SIGTERM handler that calls
     [stop] gets to run here. *)
  while not (stopping t) do
    Thread.delay 0.05
  done;
  Option.iter Thread.join t.acceptor;
  t.acceptor <- None;
  List.iter close_listener t.listeners;
  t.listeners <- []

let tcp_port t = t.port

(* ------------------------------ helpers ----------------------------- *)

let note_ewma e x =
  let rec go () =
    let cur = Atomic.get e in
    let next = if cur = 0 then x else ((7 * cur) + x) / 8 in
    if not (Atomic.compare_and_set e cur next) then go ()
  in
  go ()

let stats keep =
  List.filter_map
    (fun (name, v) -> if keep name then Some (name, Metrics.to_int v) else None)
    (Metrics.snapshot ())
