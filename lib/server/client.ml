module C = Codec

type t = { fd : Unix.file_descr; mutable open_ : bool }

type endpoint = Unix_socket of string | Tcp of { host : string; port : int }

type outcome =
  | Ok of C.ok_reply
  | Rejected of { retry_after_ms : int }
  | Error of string

let close t =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()
  end

let relay t payload =
  C.send_payload t.fd payload;
  match C.recv_payload t.fd with
  | Some reply -> reply
  | None -> failwith "server closed the connection"

let roundtrip t msg = C.decode (relay t (C.encode msg))

let connect ep =
  let fd, addr =
    match ep with
    | Unix_socket path ->
        (Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Tcp { host; port } ->
        let inet =
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        (Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0, Unix.ADDR_INET (inet, port))
  in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
     raise e);
  let t = { fd; open_ = true } in
  match roundtrip t (C.Hello { proto = C.protocol_version; version = Version.version }) with
  | C.Hello_ack { proto; version; version_match } ->
      if proto <> C.protocol_version then begin
        close t;
        failwith
          (Printf.sprintf "protocol mismatch: server speaks v%d, client v%d" proto
             C.protocol_version)
      end;
      (t, `Version version, `Match version_match)
  | _ ->
      close t;
      failwith "unexpected handshake reply"
  | exception e ->
      close t;
      raise e

let request t req =
  match roundtrip t (C.Request req) with
  | C.Reply_ok ok -> Ok ok
  | C.Reply_rejected { retry_after_ms } -> Rejected { retry_after_ms }
  | C.Reply_error m -> Error m
  | _ -> Error "unexpected reply to request"

let rec request_retry ?(attempts = 5) t req =
  match request t req with
  | Rejected { retry_after_ms } when attempts > 1 ->
      Unix.sleepf (float_of_int retry_after_ms /. 1000.);
      request_retry ~attempts:(attempts - 1) t req
  | outcome -> outcome

let reschedule t ~base ~delta =
  match roundtrip t (C.Reschedule { base; delta }) with
  | C.Reply_ok ok -> Ok ok
  | C.Reply_rejected { retry_after_ms } -> Rejected { retry_after_ms }
  | C.Reply_error m -> Error m
  | _ -> Error "unexpected reply to reschedule"

let rec reschedule_retry ?(attempts = 5) t ~base ~delta =
  match reschedule t ~base ~delta with
  | Rejected { retry_after_ms } when attempts > 1 ->
      Unix.sleepf (float_of_int retry_after_ms /. 1000.);
      reschedule_retry ~attempts:(attempts - 1) t ~base ~delta
  | outcome -> outcome

let peek t req =
  match roundtrip t (C.Peek req) with
  | C.Reply_ok ok -> `Hit ok
  | C.Peek_miss -> `Miss
  | C.Reply_error m -> `Error m
  | _ -> `Error "unexpected reply to peek"

let put t ?(version = 0) ~req ~stats ~schedule () =
  match roundtrip t (C.Put { req; version; stats; schedule }) with
  | C.Put_ack -> Result.Ok ()
  | C.Reply_error m -> Result.Error m
  | _ -> Result.Error "unexpected reply to put"

let stats t =
  match roundtrip t C.Stats_request with
  | C.Stats_reply kvs -> kvs
  | _ -> failwith "unexpected reply to stats request"

let shutdown t =
  match roundtrip t C.Shutdown with
  | C.Shutdown_ack -> ()
  | _ -> failwith "unexpected reply to shutdown"
