module Schedule = Mlbs_core.Schedule
module Interference = Mlbs_phy.Interference

let protocol_version = 6
let max_frame = 1 lsl 26 (* 64 MiB *)

type policy = Baseline | Emodel | Gopt | Opt

type topology =
  | Gen of { n : int; radius : float }
  | Adj of int list array

type request = {
  policy : policy;
  rate : int option;
  seed : int;
  topology : topology;
  source : int option;
  start : int;
  model : Interference.t;
}

type delta = {
  d_added : (int * int) list;
  d_removed : (int * int) list;
  d_rewired : (int * int list) list;
}

type stats = {
  elapsed : int;
  transmissions : int;
  n_steps : int;
  search_states : int;
  solve_us : int;
}

type ok_reply = {
  trace_id : string;
  cache_hit : bool;
  version : int;
  stats : stats;
  schedule : Schedule.t;
}

type msg =
  | Hello of { proto : int; version : string }
  | Hello_ack of { proto : int; version : string; version_match : bool }
  | Request of request
  | Reschedule of { base : request; delta : delta }
  | Reply_ok of ok_reply
  | Reply_rejected of { retry_after_ms : int }
  | Reply_error of string
  | Stats_request
  | Stats_reply of (string * int) list
  | Shutdown
  | Shutdown_ack
  | Put of { req : request; version : int; stats : stats; schedule : Schedule.t }

exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* ------------------------------ writer ------------------------------ *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then fail "u32 out of range: %d" v;
  put_u8 b (v lsr 24);
  put_u8 b (v lsr 16);
  put_u8 b (v lsr 8);
  put_u8 b v

let put_i64 b v = Buffer.add_int64_be b (Int64.of_int v)

let put_bool b v = put_u8 b (if v then 1 else 0)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_int_list b l =
  put_u32 b (List.length l);
  List.iter (put_u32 b) l

let put_opt put b = function
  | None -> put_u8 b 0
  | Some v ->
      put_u8 b 1;
      put b v

(* ------------------------------ reader ------------------------------ *)

type reader = { s : string; mutable pos : int }

let need r k = if r.pos + k > String.length r.s then fail "truncated payload"

let get_u8 r =
  need r 1;
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  need r 4;
  let v =
    (Char.code r.s.[r.pos] lsl 24)
    lor (Char.code r.s.[r.pos + 1] lsl 16)
    lor (Char.code r.s.[r.pos + 2] lsl 8)
    lor Char.code r.s.[r.pos + 3]
  in
  r.pos <- r.pos + 4;
  v

let get_i64 r =
  need r 8;
  let v = String.get_int64_be r.s r.pos in
  r.pos <- r.pos + 8;
  Int64.to_int v

let get_bool r =
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> fail "bad bool byte %d" v

(* Every count is validated against the bytes actually remaining before
   anything of that size is allocated. *)
let get_count r ~elt_bytes =
  let k = get_u32 r in
  if k * elt_bytes > String.length r.s - r.pos then fail "count %d exceeds payload" k;
  k

let get_string r =
  let k = get_count r ~elt_bytes:1 in
  need r k;
  let s = String.sub r.s r.pos k in
  r.pos <- r.pos + k;
  s

let get_int_list r =
  let k = get_count r ~elt_bytes:4 in
  List.init k (fun _ -> get_u32 r)

let get_opt get r = match get_u8 r with 0 -> None | 1 -> Some (get r) | v -> fail "bad option byte %d" v

(* ----------------------------- payloads ----------------------------- *)

let policy_code = function Baseline -> 0 | Emodel -> 1 | Gopt -> 2 | Opt -> 3

let policy_of_code = function
  | 0 -> Baseline
  | 1 -> Emodel
  | 2 -> Gopt
  | 3 -> Opt
  | c -> fail "bad policy code %d" c

let put_topology b = function
  | Gen { n; radius } ->
      put_u8 b 0;
      put_u32 b n;
      Buffer.add_int64_be b (Int64.bits_of_float radius)
  | Adj adj ->
      put_u8 b 1;
      put_u32 b (Array.length adj);
      Array.iter (put_int_list b) adj

let get_topology r =
  match get_u8 r with
  | 0 ->
      let n = get_u32 r in
      need r 8;
      let radius = Int64.float_of_bits (String.get_int64_be r.s r.pos) in
      r.pos <- r.pos + 8;
      Gen { n; radius }
  | 1 ->
      let n = get_count r ~elt_bytes:4 in
      Adj (Array.init n (fun _ -> get_int_list r))
  | t -> fail "bad topology tag %d" t

let put_float b f = Buffer.add_int64_be b (Int64.bits_of_float f)

let get_float r =
  need r 8;
  let f = Int64.float_of_bits (String.get_int64_be r.s r.pos) in
  r.pos <- r.pos + 8;
  f

(* Protocol v4: the interference model is part of the request — it keys
   the cache (a SINR schedule must never answer a UDG request) and the
   codec validates the parameters so a malformed spec is rejected at the
   wire, not deep inside a solve. *)
let put_model b = function
  | Interference.Udg -> put_u8 b 0
  | Interference.Sinr { alpha; beta; noise; power } ->
      put_u8 b 1;
      put_float b alpha;
      put_float b beta;
      put_float b noise;
      put_float b power
  | Interference.Multichannel k ->
      put_u8 b 2;
      put_u8 b k

let get_model r =
  let m =
    match get_u8 r with
    | 0 -> Interference.Udg
    | 1 ->
        let alpha = get_float r in
        let beta = get_float r in
        let noise = get_float r in
        let power = get_float r in
        Interference.Sinr { alpha; beta; noise; power }
    | 2 -> Interference.Multichannel (get_u8 r)
    | t -> fail "bad interference model tag %d" t
  in
  match Interference.validate m with
  | Ok () -> m
  | Error e -> fail "bad interference model: %s" e

let put_request b (q : request) =
  put_u8 b (policy_code q.policy);
  put_opt put_u32 b q.rate;
  put_i64 b q.seed;
  put_topology b q.topology;
  put_opt put_u32 b q.source;
  put_u32 b q.start;
  put_model b q.model

let get_request r =
  let policy = policy_of_code (get_u8 r) in
  let rate = get_opt get_u32 r in
  let seed = get_i64 r in
  let topology = get_topology r in
  let source = get_opt get_u32 r in
  let start = get_u32 r in
  let model = get_model r in
  { policy; rate; seed; topology; source; start; model }

let put_pair_list b l =
  put_u32 b (List.length l);
  List.iter
    (fun (u, v) ->
      put_u32 b u;
      put_u32 b v)
    l

let get_pair_list r =
  let k = get_count r ~elt_bytes:8 in
  List.init k (fun _ ->
      let u = get_u32 r in
      let v = get_u32 r in
      (u, v))

let put_delta b (d : delta) =
  put_pair_list b d.d_added;
  put_pair_list b d.d_removed;
  put_u32 b (List.length d.d_rewired);
  List.iter
    (fun (u, nbrs) ->
      put_u32 b u;
      put_int_list b nbrs)
    d.d_rewired

let get_delta r =
  let d_added = get_pair_list r in
  let d_removed = get_pair_list r in
  let k = get_count r ~elt_bytes:8 in
  let d_rewired =
    List.init k (fun _ ->
        let u = get_u32 r in
        let nbrs = get_int_list r in
        (u, nbrs))
  in
  { d_added; d_removed; d_rewired }

let put_stats b (s : stats) =
  put_u32 b s.elapsed;
  put_u32 b s.transmissions;
  put_u32 b s.n_steps;
  put_i64 b s.search_states;
  put_i64 b s.solve_us

let get_stats r =
  let elapsed = get_u32 r in
  let transmissions = get_u32 r in
  let n_steps = get_u32 r in
  let search_states = get_i64 r in
  let solve_us = get_i64 r in
  { elapsed; transmissions; n_steps; search_states; solve_us }

let put_schedule b s =
  put_u32 b (Schedule.n_nodes s);
  put_u32 b (Schedule.source s);
  put_u32 b (Schedule.start s);
  let steps = Schedule.steps s in
  put_u32 b (List.length steps);
  List.iter
    (fun (st : Schedule.step) ->
      put_u32 b st.Schedule.slot;
      put_int_list b st.Schedule.senders;
      put_int_list b st.Schedule.informed)
    steps

let get_schedule r =
  let n_nodes = get_u32 r in
  let source = get_u32 r in
  let start = get_u32 r in
  let k = get_count r ~elt_bytes:12 in
  let steps =
    List.init k (fun _ ->
        let slot = get_u32 r in
        let senders = get_int_list r in
        let informed = get_int_list r in
        { Schedule.slot; senders; informed })
  in
  try Schedule.make ~n_nodes ~source ~start steps
  with Invalid_argument m -> fail "inconsistent schedule: %s" m

let schedule_bytes s =
  let b = Buffer.create 256 in
  put_schedule b s;
  Buffer.contents b

(* ----------------------------- messages ----------------------------- *)

let encode msg =
  let b = Buffer.create 64 in
  (match msg with
  | Hello { proto; version } ->
      put_u8 b 1;
      put_u32 b proto;
      put_string b version
  | Hello_ack { proto; version; version_match } ->
      put_u8 b 2;
      put_u32 b proto;
      put_string b version;
      put_bool b version_match
  | Request q ->
      put_u8 b 3;
      put_request b q
  | Reply_ok { trace_id; cache_hit; version; stats; schedule } ->
      put_u8 b 4;
      put_string b trace_id;
      put_bool b cache_hit;
      put_u32 b version;
      put_stats b stats;
      put_schedule b schedule
  | Reply_rejected { retry_after_ms } ->
      put_u8 b 5;
      put_u32 b retry_after_ms
  | Reply_error m ->
      put_u8 b 6;
      put_string b m
  | Stats_request -> put_u8 b 7
  | Stats_reply kvs ->
      put_u8 b 8;
      put_u32 b (List.length kvs);
      List.iter
        (fun (k, v) ->
          put_string b k;
          put_i64 b v)
        kvs
  | Shutdown -> put_u8 b 9
  | Shutdown_ack -> put_u8 b 10
  | Reschedule { base; delta } ->
      put_u8 b 11;
      put_request b base;
      put_delta b delta
  | Put { req; version; stats; schedule } ->
      put_u8 b 14;
      put_request b req;
      put_u32 b version;
      put_stats b stats;
      put_schedule b schedule);
  Buffer.contents b

let decode payload =
  if payload = "" then fail "empty payload";
  let r = { s = payload; pos = 0 } in
  let msg =
    match get_u8 r with
    | 1 ->
        let proto = get_u32 r in
        let version = get_string r in
        Hello { proto; version }
    | 2 ->
        let proto = get_u32 r in
        let version = get_string r in
        let version_match = get_bool r in
        Hello_ack { proto; version; version_match }
    | 3 -> Request (get_request r)
    | 4 ->
        let trace_id = get_string r in
        let cache_hit = get_bool r in
        let version = get_u32 r in
        let stats = get_stats r in
        let schedule = get_schedule r in
        Reply_ok { trace_id; cache_hit; version; stats; schedule }
    | 5 -> Reply_rejected { retry_after_ms = get_u32 r }
    | 6 -> Reply_error (get_string r)
    | 7 -> Stats_request
    | 8 ->
        let k = get_count r ~elt_bytes:12 in
        Stats_reply
          (List.init k (fun _ ->
               let key = get_string r in
               let v = get_i64 r in
               (key, v)))
    | 9 -> Shutdown
    | 10 -> Shutdown_ack
    | 11 ->
        let base = get_request r in
        let delta = get_delta r in
        Reschedule { base; delta }
    | 14 ->
        let req = get_request r in
        let version = get_u32 r in
        let stats = get_stats r in
        let schedule = get_schedule r in
        Put { req; version; stats; schedule }
    | t -> fail "unknown message tag %d" t
  in
  if r.pos <> String.length payload then fail "trailing bytes after message";
  msg

(* ------------------------------ framing ----------------------------- *)

let rec write_all fd buf off len =
  if len > 0 then begin
    let k = try Unix.write fd buf off len with Unix.Unix_error (Unix.EINTR, _, _) -> 0 in
    write_all fd buf (off + k) (len - k)
  end

(* [exact] distinguishes EOF at a frame boundary (None) from truncation
   mid-frame (Malformed). *)
let read_exact fd len ~boundary =
  let buf = Bytes.create len in
  let rec go off =
    if off = len then Some (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> if off = 0 && boundary then None else fail "connection closed mid-frame"
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let send_payload fd payload =
  let len = String.length payload in
  if len > max_frame then fail "frame too large (%d bytes)" len;
  let buf = Bytes.create (4 + len) in
  Bytes.set_uint8 buf 0 (len lsr 24 land 0xff);
  Bytes.set_uint8 buf 1 (len lsr 16 land 0xff);
  Bytes.set_uint8 buf 2 (len lsr 8 land 0xff);
  Bytes.set_uint8 buf 3 (len land 0xff);
  Bytes.blit_string payload 0 buf 4 len;
  write_all fd buf 0 (4 + len)

let send fd msg = send_payload fd (encode msg)

let recv_payload fd =
  match read_exact fd 4 ~boundary:true with
  | None -> None
  | Some hdr ->
      let len =
        (Char.code hdr.[0] lsl 24)
        lor (Char.code hdr.[1] lsl 16)
        lor (Char.code hdr.[2] lsl 8)
        lor Char.code hdr.[3]
      in
      if len > max_frame then fail "frame length %d exceeds limit" len;
      if len = 0 then fail "empty frame";
      (match read_exact fd len ~boundary:false with
      | None -> assert false
      | Some payload -> Some payload)

let recv fd = Option.map decode (recv_payload fd)

(* -------------------------- payload views --------------------------- *)

(* The fleet front tier relays payloads without decoding schedules; the
   helpers below read just enough of a payload to route and account it. *)

let payload_tag payload = if payload = "" then fail "empty payload" else Char.code payload.[0]

type reply_view =
  | View_ok of { cache_hit : bool }
  | View_rejected of { retry_after_ms : int }
  | View_error of string
  | View_other of int

let reply_view payload =
  let r = { s = payload; pos = 0 } in
  match get_u8 r with
  | 4 ->
      let _trace_id = get_string r in
      View_ok { cache_hit = get_bool r }
  | 5 -> View_rejected { retry_after_ms = get_u32 r }
  | 6 -> View_error (get_string r)
  | t -> View_other t
