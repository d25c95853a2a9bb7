module Codec = Mlbs_server.Codec
module Cache = Mlbs_server.Cache
module Daemon = Mlbs_server.Daemon
module Client = Mlbs_server.Client
module Schedule = Mlbs_core.Schedule
module Pool = Mlbs_util.Pool

let temp_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "mlbs_server_%d_%d" (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let sample_schedule =
  Schedule.make ~n_nodes:6 ~source:0 ~start:1
    [
      { Schedule.slot = 1; senders = [ 0 ]; informed = [ 1; 4 ] };
      { Schedule.slot = 3; senders = [ 1; 4 ]; informed = [ 2; 3; 5 ] };
    ]

let sample_stats =
  { Codec.elapsed = 3; transmissions = 3; n_steps = 2; search_states = 17; solve_us = 1234 }

let gen_request =
  {
    Codec.policy = Codec.Gopt;
    rate = None;
    seed = 7;
    topology = Codec.Gen { n = 60; radius = 10.0 };
    source = None;
    start = 1;
    model = Mlbs_phy.Interference.Udg;
  }

(* ------------------------------ codec ------------------------------ *)

let roundtrip msg = Codec.decode (Codec.encode msg)

let check_roundtrip name msg =
  Alcotest.(check bool) name true (roundtrip msg = msg)

let sample_delta =
  {
    Codec.d_added = [ (0, 3); (2, 5) ];
    d_removed = [ (1, 4) ];
    d_rewired = [ (0, [ 1; 3 ]); (5, [ 2; 4 ]) ];
  }

let test_codec_roundtrip () =
  Alcotest.(check int) "versioned replies need protocol v5" 5 Codec.protocol_version;
  check_roundtrip "hello" (Codec.Hello { proto = 1; version = "1.1.0" });
  check_roundtrip "hello_ack"
    (Codec.Hello_ack { proto = 1; version = "1.1.0"; version_match = false });
  check_roundtrip "request gen" (Codec.Request gen_request);
  check_roundtrip "request adj"
    (Codec.Request
       {
         gen_request with
         Codec.topology = Codec.Adj [| [ 1 ]; [ 0; 2 ]; [ 1 ] |];
         rate = Some 5;
         source = Some 2;
       });
  check_roundtrip "request sinr"
    (Codec.Request
       { gen_request with Codec.model = Mlbs_phy.Interference.(Sinr default_sinr) });
  check_roundtrip "request sinr custom"
    (Codec.Request
       {
         gen_request with
         Codec.model =
           Mlbs_phy.Interference.Sinr
             { alpha = 2.5; beta = 1.5; noise = 0.1; power = 0.75 };
       });
  check_roundtrip "request mc"
    (Codec.Request { gen_request with Codec.model = Mlbs_phy.Interference.Multichannel 3 });
  check_roundtrip "reply_ok"
    (Codec.Reply_ok
       {
         trace_id = "rq-000001-aabbccdd";
         cache_hit = true;
         version = 3;
         stats = sample_stats;
         schedule = sample_schedule;
       });
  check_roundtrip "reschedule"
    (Codec.Reschedule { base = gen_request; delta = sample_delta });
  check_roundtrip "reschedule empty delta"
    (Codec.Reschedule
       { base = gen_request; delta = { Codec.d_added = []; d_removed = []; d_rewired = [] } });
  check_roundtrip "rejected" (Codec.Reply_rejected { retry_after_ms = 120 });
  check_roundtrip "error" (Codec.Reply_error "boom");
  check_roundtrip "stats_request" Codec.Stats_request;
  check_roundtrip "stats_reply"
    (Codec.Stats_reply [ ("server/requests", 42); ("server/cache/hits", 7) ]);
  check_roundtrip "shutdown" Codec.Shutdown;
  check_roundtrip "shutdown_ack" Codec.Shutdown_ack;
  check_roundtrip "peek" (Codec.Peek gen_request);
  check_roundtrip "peek_miss" Codec.Peek_miss;
  check_roundtrip "put"
    (Codec.Put
       { req = gen_request; version = 2; stats = sample_stats; schedule = sample_schedule });
  check_roundtrip "put_ack" Codec.Put_ack

let expect_malformed name payload =
  match Codec.decode payload with
  | _ -> Alcotest.failf "%s: expected Malformed" name
  | exception Codec.Malformed _ -> ()

let test_codec_malformed () =
  expect_malformed "empty" "";
  expect_malformed "unknown tag" "\xff";
  expect_malformed "truncated hello" "\x01\x00\x00";
  (* A count field claiming more elements than the payload holds must be
     rejected before anything that size is allocated. *)
  expect_malformed "hostile count" "\x06\x7f\xff\xff\xff";
  let ok = Codec.encode (Codec.Reply_error "x") in
  expect_malformed "trailing bytes" (ok ^ "y");
  (* A non-finite SINR parameter never reaches a cache key. *)
  List.iter
    (fun (name, p) ->
      expect_malformed name
        (Codec.encode
           (Codec.Request { gen_request with Codec.model = Mlbs_phy.Interference.Sinr p })))
    Mlbs_phy.Interference.
      [
        ("nan alpha", { default_sinr with alpha = Float.nan });
        ("infinite power", { default_sinr with power = Float.infinity });
      ];
  (* An inconsistent schedule (steps out of order) must not decode. *)
  let b = Buffer.create 64 in
  Buffer.add_string b "\x04";
  Buffer.add_string b "\x00\x00\x00\x02id";
  Buffer.add_string b "\x00";
  Buffer.add_string b (String.concat "" (List.map (fun _ -> "\x00\x00\x00\x01") [ 1; 2; 3 ]));
  Buffer.add_string b "\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01";
  Buffer.add_string b "\x00\x00\x00\x06\x00\x00\x00\x00\x00\x00\x00\x01";
  Buffer.add_string b "\x00\x00\x00\x02";
  (* two steps, both at slot 1 *)
  let step =
    "\x00\x00\x00\x01" ^ "\x00\x00\x00\x01\x00\x00\x00\x00" ^ "\x00\x00\x00\x01\x00\x00\x00\x01"
  in
  Buffer.add_string b step;
  Buffer.add_string b step;
  expect_malformed "non-increasing slots" (Buffer.contents b)

let test_codec_framing () =
  let r, w = Unix.pipe () in
  let msgs =
    [ Codec.Hello { proto = 1; version = "x" }; Codec.Request gen_request; Codec.Shutdown ]
  in
  List.iter (Codec.send w) msgs;
  Unix.close w;
  let got = List.map (fun _ -> Option.get (Codec.recv r)) msgs in
  Alcotest.(check bool) "all frames round-trip" true (got = msgs);
  Alcotest.(check bool) "clean EOF" true (Codec.recv r = None);
  Unix.close r

(* ------------------------------ cache ------------------------------ *)

let test_cache_lru_eviction () =
  let c = Cache.create ~metrics_prefix:"test/lru" ~capacity:3 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  (* Touch "a": it becomes MRU, so "b" is now the eviction victim. *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Cache.find c "a");
  Cache.add c "d" 4;
  Alcotest.(check int) "still at capacity" 3 (Cache.length c);
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a survived" (Some 1) (Cache.find c "a");
  Alcotest.(check (list string)) "mru order"
    [ "a"; "d"; "c" ]
    (List.map fst (Cache.to_list_mru c));
  (* Replacing a key must not grow the cache. *)
  Cache.add c "d" 40;
  Alcotest.(check int) "replace keeps length" 3 (Cache.length c);
  Alcotest.(check (option int)) "replace updates" (Some 40) (Cache.find c "d")

let test_cache_zero_capacity () =
  let c = Cache.create ~metrics_prefix:"test/zero" ~capacity:0 () in
  Cache.add c "a" 1;
  Alcotest.(check int) "stores nothing" 0 (Cache.length c);
  Alcotest.(check (option int)) "always misses" None (Cache.find c "a")

let test_cache_concurrent_domains () =
  (* Hammer one cache from real domains: every hit must return the
     value written for that key — never a torn or foreign entry. *)
  let c = Cache.create ~metrics_prefix:"test/conc" ~capacity:64 () in
  let ops = Array.init 400 (fun i -> i) in
  let ok =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map_on pool
          (fun i ->
            let key = Printf.sprintf "k%d" (i mod 50) in
            Cache.add c key (String.make 5 (Char.chr (65 + (i mod 26))));
            match Cache.find c key with
            | None -> true (* may have been evicted by a neighbour *)
            | Some v ->
                String.length v = 5 && Array.for_all (fun ch -> ch = v.[0])
                  (Array.init 5 (fun j -> v.[j])))
          ops)
  in
  Alcotest.(check bool) "no torn entries" true (Array.for_all Fun.id ok);
  Alcotest.(check bool) "capacity respected" true (Cache.length c <= 64)

(* ------------------------- daemon harness -------------------------- *)

(* A daemon on a fresh socket, handed to [f] with its socket path. *)
let with_running_daemon ?(jobs = 2) ?(queue_capacity = 64) ?(cache_capacity = 32) ?cache_dir
    ?(allowed_models = None) f =
  let dir = temp_dir () in
  let socket_path = Filename.concat dir "d.sock" in
  let cfg =
    {
      (Daemon.default_config ~socket_path) with
      Daemon.jobs;
      queue_capacity;
      cache_capacity;
      cache_dir;
      allowed_models;
    }
  in
  let d = Daemon.start cfg in
  let finish () =
    Daemon.stop d;
    Daemon.wait d;
    rm_rf dir
  in
  Fun.protect ~finally:finish (fun () -> f d socket_path)

let with_daemon ?jobs ?queue_capacity ?cache_dir ?allowed_models f =
  with_running_daemon ?jobs ?queue_capacity ?cache_dir ?allowed_models (fun _ socket -> f socket)

let connect path =
  let c, `Version _, `Match m = Client.connect (Client.Unix_socket path) in
  Alcotest.(check bool) "client and server builds match" true m;
  c

(* Request [req] and check the reply is [Daemon.solve]'s schedule, a
   cache hit iff [hit]. *)
let check_served c ~hit name req =
  match Client.request c req with
  | Client.Ok ok ->
      Alcotest.(check bool) (name ^ ": cache hit") hit ok.Codec.cache_hit;
      let _, direct = Daemon.solve req in
      Alcotest.(check string) (name ^ ": byte-identical to Daemon.solve")
        (Codec.schedule_bytes direct)
        (Codec.schedule_bytes ok.Codec.schedule)
  | _ -> Alcotest.failf "%s: expected Ok" name

(* ------------------------- cache persistence ----------------------- *)

let cache_file dir = Filename.concat dir "cache.frames"

let persist_requests =
  List.map
    (fun seed -> { gen_request with Codec.seed; topology = Codec.Gen { n = 50; radius = 10.0 } })
    [ 1; 2; 3 ]

let check_entries name want got =
  Alcotest.(check (list string)) (name ^ ": recency order")
    (List.map fst (Cache.to_list_mru want))
    (List.map fst (Cache.to_list_mru got));
  List.iter2
    (fun (_, (e : Daemon.entry)) (_, (e' : Daemon.entry)) ->
      Alcotest.(check string) (name ^ ": schedule bytes")
        (Codec.schedule_bytes e.Daemon.schedule)
        (Codec.schedule_bytes e'.Daemon.schedule);
      Alcotest.(check bool) (name ^ ": stats") true (e.Daemon.stats = e'.Daemon.stats);
      Alcotest.(check int) (name ^ ": version") e.Daemon.version e'.Daemon.version;
      Alcotest.(check bool) (name ^ ": origin") true (e.Daemon.origin = e'.Daemon.origin))
    (Cache.to_list_mru want) (Cache.to_list_mru got)

let test_cache_persistence_roundtrip () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = Cache.create ~metrics_prefix:"test/persist" ~capacity:8 () in
  List.iteri
    (fun version req ->
      Cache.add c (Daemon.cache_key req) (Daemon.entry_of ~origin:req ~version (Daemon.solve req)))
    persist_requests;
  (* A hit moves the oldest entry to the MRU end. *)
  ignore (Cache.find c (Daemon.cache_key (List.hd persist_requests)));
  Alcotest.(check int) "saved all" 3 (Daemon.save_cache ~dir c);
  let c' = Cache.create ~metrics_prefix:"test/persist2" ~capacity:8 () in
  Alcotest.(check int) "loaded all" 3 (Daemon.load_cache ~dir c');
  check_entries "reload" c c';
  (* Saving over an existing file replaces it whole. *)
  let small = Cache.create ~metrics_prefix:"test/persist3" ~capacity:2 () in
  List.iter (fun (k, e) -> Cache.add small k e) (List.rev (Cache.to_list_mru c));
  Alcotest.(check int) "capacity-bounded save" 2 (Daemon.save_cache ~dir small);
  let c'' = Cache.create ~metrics_prefix:"test/persist4" ~capacity:8 () in
  Alcotest.(check int) "reload sees the smaller file" 2 (Daemon.load_cache ~dir c'');
  check_entries "second reload" small c''

(* The text index of older daemons is not read: the daemon starts cold
   over it. *)
let test_load_cache_ignores_old_index () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let oc = open_out (Filename.concat dir "index.txt") in
  output_string oc "mlbs-cache-index 2 1\nentry e0000 somekey 3 3 2 17 1234 0\n";
  close_out oc;
  Alcotest.(check int) "old index loads nothing" 0
    (Daemon.load_cache ~dir (Cache.create ~metrics_prefix:"test/old" ~capacity:4 ()))

let test_load_cache_missing_dir () =
  Alcotest.(check int) "no file -> 0"
    0
    (Daemon.load_cache ~dir:"/nonexistent/mlbs-cache"
       (Cache.create ~metrics_prefix:"test/missing" ~capacity:4 ()))

let write_frames path msgs =
  let fd = Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> List.iter (Codec.send fd) msgs)

let read_frames path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let rec go acc = match Codec.recv fd with Some m -> go (m :: acc) | None -> List.rev acc in
      go [])

let put_of req =
  let stats, schedule = Daemon.solve req in
  Codec.Put { req; version = 0; stats; schedule }

(* A file from another protocol revision is not read at all, even when
   its frames would decode. *)
let test_load_cache_wrong_proto () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  write_frames (cache_file dir)
    (Codec.Hello { proto = Codec.protocol_version - 1; version = "old" }
    :: List.map put_of persist_requests);
  Alcotest.(check int) "wrong proto loads nothing" 0
    (Daemon.load_cache ~dir (Cache.create ~metrics_prefix:"test/proto" ~capacity:4 ()))

(* A disk entry passes the same replay check as a peer [Put]: a
   schedule edited so that two relays collide is dropped at start,
   counted once in [server/put_refused], and the request is then
   solved afresh. On the diamond 0-{1,2}-3 the edit makes both 1 and 2
   send to 3 in one slot. *)
let test_load_cache_refuses_collision () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let diamond = Codec.Adj [| [ 1; 2 ]; [ 0; 3 ]; [ 0; 3 ]; [ 1; 2 ] |] in
  let req = { gen_request with Codec.topology = diamond; source = Some 0 } in
  with_daemon ~cache_dir:dir (fun socket ->
      let c = connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      check_served c ~hit:false "cold" req);
  let collide (s : Schedule.step) =
    if List.mem 3 s.Schedule.informed then { s with Schedule.senders = [ 1; 2 ] } else s
  in
  (match read_frames (cache_file dir) with
  | [ (Codec.Hello _ as hello); Codec.Put p ] ->
      let s = p.schedule in
      let edited =
        Schedule.make ~n_nodes:(Schedule.n_nodes s) ~source:(Schedule.source s)
          ~start:(Schedule.start s) (List.map collide (Schedule.steps s))
      in
      write_frames (cache_file dir) [ hello; Codec.Put { p with schedule = edited } ]
  | _ -> Alcotest.fail "expected a header and one Put");
  let refused = Mlbs_obs.Metrics.counter_value "server/put_refused" in
  with_daemon ~cache_dir:dir (fun socket ->
      Alcotest.(check int) "refusal counted once" (refused + 1)
        (Mlbs_obs.Metrics.counter_value "server/put_refused");
      let c = connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      check_served c ~hit:false "collided entry dropped" req)

let save_requests dir reqs =
  let c = Cache.create ~metrics_prefix:"test/torn" ~capacity:8 () in
  List.iter
    (fun req -> Cache.add c (Daemon.cache_key req) (Daemon.entry_of ~origin:req (Daemon.solve req)))
    reqs;
  ignore (Daemon.save_cache ~dir c)

(* The two states a crash mid-save can leave. A stray temp file beside
   a good file is ignored and replaced by the next save. A final frame
   cut mid-payload ends the read: the entries before it load, and the
   cut one is solved afresh. Every reply is [Daemon.solve]'s. *)
let test_load_cache_torn_save () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  save_requests dir persist_requests;
  let tmp = cache_file dir ^ ".tmp" in
  let good = In_channel.with_open_bin (cache_file dir) In_channel.input_all in
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc (String.sub good 0 (String.length good / 2)));
  with_daemon ~cache_dir:dir (fun socket ->
      let c = connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      List.iteri
        (fun i req -> check_served c ~hit:true (Printf.sprintf "stray temp, entry %d" i) req)
        persist_requests);
  Alcotest.(check bool) "next save consumed the temp file" false (Sys.file_exists tmp);
  save_requests dir persist_requests;
  let size = (Unix.stat (cache_file dir)).Unix.st_size in
  Unix.truncate (cache_file dir) (size - 5);
  with_daemon ~cache_dir:dir (fun socket ->
      let c = connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (* Saved LRU first: the last request's frame is the cut one. *)
      List.iteri
        (fun i req ->
          check_served c ~hit:(i < 2) (Printf.sprintf "truncated tail, entry %d" i) req)
        persist_requests)

(* Entries read back from disk carry their request, so the improver
   can polish them like any other. *)
let test_polish_disk_entry () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let req = { gen_request with Codec.policy = Codec.Baseline } in
  save_requests dir [ req ];
  with_running_daemon ~jobs:1 ~cache_dir:dir @@ fun d socket ->
  let rec polish_until = function
    | 0 -> false
    | n -> Daemon.polish_once d ~budget:400 || polish_until (n - 1)
  in
  Alcotest.(check bool) "a disk entry is upgraded" true (polish_until 12);
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.request c req with
  | Client.Ok ok ->
      Alcotest.(check bool) "upgrade served from cache" true ok.Codec.cache_hit;
      Alcotest.(check bool) "version advanced" true (ok.Codec.version > 0);
      Alcotest.(check bool) "upgrade replays clean" true
        (Mlbs_sim.Validate.check (Daemon.model_of req) ok.Codec.schedule).Mlbs_sim.Validate.ok
  | _ -> Alcotest.fail "expected Ok"

(* ---------------------------- cache keys --------------------------- *)

(* Content addresses are persistent: cache indexes on disk and every
   fleet's ring placement are keyed by them, so a change to how a
   deployment, its source or its digest comes out must not move them
   silently. The strings cover udg, duty cycle, mc:2 and SINR at
   n = 150 and 300 over cold_solve and hot_fleet seeds. *)
let pinned_keys =
  let module I = Mlbs_phy.Interference in
  [
    (I.Udg, None, 300, 100_001, "6a27bd070aab9b1b:p2:r-1:w0:s28:t1:mudg");
    (I.Udg, None, 300, 100_002, "86b0dbe801e2373f:p2:r-1:w0:s124:t1:mudg");
    (I.Udg, Some 10, 150, 200_001, "eb38523dca388bb7:p2:r10:w200001:s16:t1:mudg");
    (I.Udg, Some 10, 150, 200_002, "942d064a0aef304a:p2:r10:w200002:s89:t1:mudg");
    (I.Udg, Some 10, 300, 200_003, "86876cd0743e79ed:p2:r10:w200003:s244:t1:mudg");
    (I.Multichannel 2, None, 300, 300_001, "3a881638df556b96:p2:r-1:w0:s146:t1:mmc:2");
    (I.Multichannel 2, None, 300, 300_002, "b9672afd46925627:p2:r-1:w0:s111:t1:mmc:2");
    (I.Sinr I.default_sinr, None, 150, 400_001, "ac09ede282c418fc:p2:r-1:w0:s28:t1:msinr:3,2,0.2,1");
    (I.Sinr I.default_sinr, None, 150, 400_002, "0c0ca1e5921f9f89:p2:r-1:w0:s46:t1:msinr:3,2,0.2,1");
    (I.Sinr I.default_sinr, None, 300, 400_003, "fdcc1f23954fcdda:p2:r-1:w0:s117:t1:msinr:3,2,0.2,1");
    (I.Udg, None, 150, 500_001, "086faf8fcce8a73c:p2:r-1:w0:s40:t1:mudg");
    (I.Udg, None, 150, 500_064, "afa6d29419a7c8d9:p2:r-1:w0:s1:t1:mudg");
  ]

let test_cache_key_pinned () =
  List.iter
    (fun (model, rate, n, seed, want) ->
      let req =
        { gen_request with Codec.model; rate; seed; topology = Codec.Gen { n; radius = 10.0 } }
      in
      Alcotest.(check string) (Printf.sprintf "n=%d seed=%d" n seed) want (Daemon.cache_key req))
    pinned_keys

let test_cache_key_content_addressing () =
  (* The same labelled adjacency, neighbour lists built in different
     orders, must file under the same key. *)
  let adj_a = [| [ 1; 2 ]; [ 0; 2 ]; [ 0; 1; 3 ]; [ 2 ] |] in
  let adj_b = [| [ 2; 1 ]; [ 2; 0 ]; [ 3; 1; 0 ]; [ 2 ] |] in
  let req adj = { gen_request with Codec.topology = Codec.Adj adj; source = Some 0 } in
  Alcotest.(check string) "permuted adjacency, same key" (Daemon.cache_key (req adj_a))
    (Daemon.cache_key (req adj_b));
  let base = req adj_a in
  Alcotest.(check bool) "policy in key" true
    (Daemon.cache_key base <> Daemon.cache_key { base with Codec.policy = Codec.Emodel });
  Alcotest.(check bool) "rate in key" true
    (Daemon.cache_key base <> Daemon.cache_key { base with Codec.rate = Some 5 });
  Alcotest.(check bool) "source in key" true
    (Daemon.cache_key base <> Daemon.cache_key { base with Codec.source = Some 3 });
  Alcotest.(check bool) "start in key" true
    (Daemon.cache_key base <> Daemon.cache_key { base with Codec.start = 4 });
  (* Under Sync, the seed only picks the deployment; with an explicit
     adjacency it must not affect the key at all. *)
  Alcotest.(check string) "sync seed not in adj key" (Daemon.cache_key base)
    (Daemon.cache_key { base with Codec.seed = 99 });
  (* Under a duty cycle the seed drives the wake schedule: it must. *)
  let dc = { base with Codec.rate = Some 5 } in
  Alcotest.(check bool) "wake seed in duty-cycle key" true
    (Daemon.cache_key dc <> Daemon.cache_key { dc with Codec.seed = 99 });
  (* The interference model is part of the content address: a SINR or
     multi-channel solve must never share a line with the UDG one, and
     distinct channel counts are distinct addresses. *)
  Alcotest.(check bool) "model in key" true
    (Daemon.cache_key base
    <> Daemon.cache_key
         { base with Codec.model = Mlbs_phy.Interference.(Sinr default_sinr) });
  Alcotest.(check bool) "channel count in key" true
    (Daemon.cache_key { base with Codec.model = Mlbs_phy.Interference.Multichannel 2 }
    <> Daemon.cache_key { base with Codec.model = Mlbs_phy.Interference.Multichannel 3 })

(* --------------------------- daemon e2e ---------------------------- *)

let test_daemon_serves_and_caches () =
  with_daemon @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.request c gen_request with
  | Client.Ok ok ->
      Alcotest.(check bool) "first solve is a miss" false ok.Codec.cache_hit;
      let _, direct = Daemon.solve gen_request in
      Alcotest.(check string) "byte-identical to direct scheduler"
        (Codec.schedule_bytes direct)
        (Codec.schedule_bytes ok.Codec.schedule)
  | _ -> Alcotest.fail "expected Ok");
  (match Client.request c gen_request with
  | Client.Ok ok ->
      Alcotest.(check bool) "repeat is a hit" true ok.Codec.cache_hit;
      let _, direct = Daemon.solve gen_request in
      Alcotest.(check string) "hit still byte-identical"
        (Codec.schedule_bytes direct)
        (Codec.schedule_bytes ok.Codec.schedule)
  | _ -> Alcotest.fail "expected Ok");
  let stats = Client.stats c in
  Alcotest.(check bool) "stats has request counter" true
    (List.mem_assoc "server/requests" stats);
  Alcotest.(check bool) "two requests counted" true
    (List.assoc "server/requests" stats >= 2);
  (* The cold miss above ran the M-counter search, so the Stats
     frame must surface the search core's counters alongside the
     daemon's own. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exported") true (List.mem_assoc name stats))
    [ "search/states"; "search/tt_hit"; "search/tt_miss";
      "search/bound_prune_ecc"; "search/dominance_prunes" ];
  Alcotest.(check bool) "cold solve explored states" true
    (List.assoc "search/states" stats > 0)

(* The generator-topology memo is sized with the schedule cache: 300
   generator keys fit a 320-entry cache, so serving them a second time
   hits the memo on every request and never re-samples a deployment. *)
let test_daemon_topo_memo_sized_with_cache () =
  with_running_daemon ~cache_capacity:320 @@ fun _ socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let reqs =
    List.init 300 (fun seed ->
        { gen_request with Codec.seed; topology = Codec.Gen { n = 12; radius = 40.0 } })
  in
  let serve_all () =
    List.iter
      (fun req ->
        match Client.request c req with
        | Client.Ok _ -> ()
        | _ -> Alcotest.failf "seed %d: expected Ok" req.Codec.seed)
      reqs
  in
  serve_all ();
  let misses = Mlbs_obs.Metrics.counter_value "server/topo/misses" in
  serve_all ();
  Alcotest.(check int) "second pass never re-resolves a topology" misses
    (Mlbs_obs.Metrics.counter_value "server/topo/misses")

let test_daemon_duty_cycle_and_explicit_source () =
  with_daemon @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let req = { gen_request with Codec.rate = Some 5; source = Some 0; policy = Codec.Emodel } in
  match Client.request c req with
  | Client.Ok ok ->
      let _, direct = Daemon.solve req in
      Alcotest.(check string) "duty-cycle reply byte-identical"
        (Codec.schedule_bytes direct)
        (Codec.schedule_bytes ok.Codec.schedule);
      Alcotest.(check int) "source honoured" 0 (Schedule.source ok.Codec.schedule)
  | _ -> Alcotest.fail "expected Ok"

let test_daemon_rejects_bad_requests () =
  with_daemon @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.request c { gen_request with Codec.source = Some 1000 } with
  | Client.Error _ -> ()
  | _ -> Alcotest.fail "out-of-range source must be an error reply");
  (* The connection survives an error reply. *)
  match Client.request c gen_request with
  | Client.Ok _ -> ()
  | _ -> Alcotest.fail "connection must survive an error reply"

let test_daemon_sheds_overload () =
  (* queue_capacity 0: every miss is shed with an explicit reject frame
     carrying a retry hint — the daemon must never hang. *)
  with_daemon ~jobs:1 ~queue_capacity:0 @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.request c gen_request with
  | Client.Rejected { retry_after_ms } ->
      Alcotest.(check bool) "positive retry hint" true (retry_after_ms > 0)
  | _ -> Alcotest.fail "expected Rejected"

let test_daemon_warm_restart () =
  let dir = temp_dir () in
  let key = Daemon.cache_key gen_request in
  with_daemon ~cache_dir:(Filename.concat dir "cache") (fun socket ->
      let c = connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      match Client.request c gen_request with
      | Client.Ok ok -> Alcotest.(check bool) "cold miss" false ok.Codec.cache_hit
      | _ -> Alcotest.fail "expected Ok");
  (* Same cache_dir, fresh daemon: the entry must come back from disk. *)
  with_daemon ~cache_dir:(Filename.concat dir "cache") (fun socket ->
      let c = connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      match Client.request c gen_request with
      | Client.Ok ok ->
          Alcotest.(check bool) "warm hit" true ok.Codec.cache_hit;
          let _, direct = Daemon.solve gen_request in
          Alcotest.(check string) "disk round-trip byte-identical"
            (Codec.schedule_bytes direct)
            (Codec.schedule_bytes ok.Codec.schedule)
      | _ -> Alcotest.fail "expected Ok");
  ignore key;
  rm_rf dir

let test_daemon_concurrent_clients () =
  with_daemon ~jobs:2 @@ fun socket ->
  let expected = Hashtbl.create 8 in
  List.iter
    (fun seed ->
      let req = { gen_request with Codec.seed } in
      let _, s = Daemon.solve req in
      Hashtbl.replace expected seed (Codec.schedule_bytes s))
    [ 1; 2; 3; 4 ];
  let errors = Atomic.make 0 in
  let worker w () =
    let c, _, _ = Client.connect (Client.Unix_socket socket) in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    for i = 0 to 19 do
      let seed = 1 + ((w + i) mod 4) in
      match Client.request_retry ~attempts:8 c { gen_request with Codec.seed } with
      | Client.Ok ok ->
          if Codec.schedule_bytes ok.Codec.schedule <> Hashtbl.find expected seed then
            Atomic.incr errors
      | _ -> Atomic.incr errors
    done
  in
  let threads = List.init 4 (fun w -> Thread.create (worker w) ()) in
  List.iter Thread.join threads;
  Alcotest.(check int) "80 concurrent requests all byte-identical" 0 (Atomic.get errors)

let test_daemon_reschedule () =
  (* Added edges only: never disconnects. The reply must be
     byte-identical to solving the derived request directly, and must
     share that request's cache line — whether or not the base itself
     was ever requested. *)
  let delta =
    { Codec.d_added = [ (0, 7); (3, 11); (20, 41) ]; d_removed = []; d_rewired = [] }
  in
  with_daemon @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let check_reschedule name base =
    let derived = Daemon.derived_request base delta in
    (match Client.reschedule c ~base ~delta with
    | Client.Ok ok ->
        Alcotest.(check bool) (name ^ ": reschedule is a cache miss") false ok.Codec.cache_hit;
        let _, direct = Daemon.solve derived in
        Alcotest.(check string) (name ^ ": byte-identical to derived solve")
          (Codec.schedule_bytes direct)
          (Codec.schedule_bytes ok.Codec.schedule)
    | _ -> Alcotest.fail "expected Ok for reschedule");
    (* The entry was filed under the derived request's content address:
       both a repeat reschedule and the plain derived request must hit
       it. *)
    (match Client.reschedule c ~base ~delta with
    | Client.Ok ok ->
        Alcotest.(check bool) (name ^ ": repeat reschedule hits") true ok.Codec.cache_hit
    | _ -> Alcotest.fail "expected Ok for repeat reschedule");
    match Client.request c derived with
    | Client.Ok ok ->
        Alcotest.(check bool) (name ^ ": derived request hits") true ok.Codec.cache_hit
    | _ -> Alcotest.fail "expected Ok for derived request"
  in
  (match Client.request c gen_request with
  | Client.Ok _ -> ()
  | _ -> Alcotest.fail "expected Ok for base request");
  check_reschedule "primed base" gen_request;
  check_reschedule "unprimed base" { gen_request with Codec.seed = 8 }

let test_daemon_reschedule_bad_delta () =
  with_daemon @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* Out-of-range endpoint: an error reply, not a wedged connection. *)
  let bad = { Codec.d_added = [ (0, 5000) ]; d_removed = []; d_rewired = [] } in
  (match Client.reschedule c ~base:gen_request ~delta:bad with
  | Client.Error _ -> ()
  | _ -> Alcotest.fail "out-of-range delta must be an error reply");
  match Client.request c gen_request with
  | Client.Ok _ -> ()
  | _ -> Alcotest.fail "connection must survive a bad delta"

(* A peer [Put] is installed only if its schedule replays clean under
   the request's model: another deployment's schedule of the same size,
   source and start is refused and leaves the address empty; the right
   schedule is acked and then served. *)
let test_daemon_put_validated () =
  let req = { gen_request with Codec.source = Some 0 } in
  let other = { req with Codec.seed = 8 } in
  with_daemon @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let refused = Mlbs_obs.Metrics.counter_value "server/put_refused" in
  let wrong_stats, wrong = Daemon.solve other in
  (match Client.put c ~req ~stats:wrong_stats ~schedule:wrong () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "a schedule for another deployment must be refused");
  (match Client.peek c req with
  | `Miss -> ()
  | `Hit _ -> Alcotest.fail "a refused put must not be installed"
  | `Error m -> Alcotest.failf "peek failed: %s" m);
  Alcotest.(check bool) "refusal counted" true
    (List.assoc_opt "server/put_refused" (Client.stats c) = Some (refused + 1));
  let stats, schedule = Daemon.solve req in
  (match Client.put c ~req ~stats ~schedule () with
  | Ok () -> ()
  | Error m -> Alcotest.failf "a correct put must be acked: %s" m);
  match Client.peek c req with
  | `Hit hit ->
      Alcotest.(check string) "put schedule served"
        (Codec.schedule_bytes schedule)
        (Codec.schedule_bytes hit.Codec.schedule)
  | `Miss -> Alcotest.fail "a correct put must be installed"
  | `Error m -> Alcotest.failf "peek failed: %s" m

let test_daemon_model_keyed_cache () =
  (* Same topology, policy and source under a different interference
     model must never share a cache line: the UDG hit must not leak
     into the SINR request, and each reply stays byte-identical to the
     direct solve under its own model. *)
  let sinr = { gen_request with Codec.model = Mlbs_phy.Interference.(Sinr default_sinr) } in
  with_daemon @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.request c gen_request with
  | Client.Ok ok -> Alcotest.(check bool) "udg cold solve misses" false ok.Codec.cache_hit
  | _ -> Alcotest.fail "expected Ok for udg request");
  (match Client.request c gen_request with
  | Client.Ok ok -> Alcotest.(check bool) "udg repeat hits" true ok.Codec.cache_hit
  | _ -> Alcotest.fail "expected Ok for udg repeat");
  (match Client.request c sinr with
  | Client.Ok ok ->
      Alcotest.(check bool) "sinr request misses the udg line" false ok.Codec.cache_hit;
      let _, direct = Daemon.solve sinr in
      Alcotest.(check string) "sinr reply byte-identical to direct solve"
        (Codec.schedule_bytes direct)
        (Codec.schedule_bytes ok.Codec.schedule)
  | _ -> Alcotest.fail "expected Ok for sinr request");
  match Client.request c sinr with
  | Client.Ok ok -> Alcotest.(check bool) "sinr repeat hits its own line" true ok.Codec.cache_hit
  | _ -> Alcotest.fail "expected Ok for sinr repeat"

let test_daemon_serves_every_model () =
  (* Cold solve and reschedule repair per backend: both replies must be
     byte-identical to the reference path bound to the same model. *)
  let delta = { Codec.d_added = [ (0, 7); (3, 11) ]; d_removed = []; d_rewired = [] } in
  List.iter
    (fun model ->
      let id = Mlbs_phy.Interference.to_string model in
      let req = { gen_request with Codec.model } in
      with_daemon @@ fun socket ->
      let c = connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (match Client.request c req with
      | Client.Ok ok ->
          let _, direct = Daemon.solve req in
          Alcotest.(check string)
            (id ^ " solve byte-identical to direct scheduler")
            (Codec.schedule_bytes direct)
            (Codec.schedule_bytes ok.Codec.schedule)
      | _ -> Alcotest.fail ("expected Ok under " ^ id));
      match Client.reschedule c ~base:req ~delta with
      | Client.Ok ok ->
          let _, direct = Daemon.solve (Daemon.derived_request req delta) in
          Alcotest.(check string)
            (id ^ " repair byte-identical to derived solve")
            (Codec.schedule_bytes direct)
            (Codec.schedule_bytes ok.Codec.schedule)
      | _ -> Alcotest.fail ("expected Ok for reschedule under " ^ id))
    Mlbs_phy.Interference.[ Sinr default_sinr; Multichannel 3 ]

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_daemon_allowed_models () =
  with_daemon ~allowed_models:(Some [ Mlbs_phy.Interference.Udg ]) @@ fun socket ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let mc = { gen_request with Codec.model = Mlbs_phy.Interference.Multichannel 2 } in
  (match Client.request c mc with
  | Client.Error msg ->
      Alcotest.(check bool) "refusal names the model" true (contains_substring msg "mc:2")
  | _ -> Alcotest.fail "disallowed model must be an error reply");
  (match Client.reschedule c ~base:mc
           ~delta:{ Codec.d_added = [ (0, 7) ]; d_removed = []; d_rewired = [] }
   with
  | Client.Error _ -> ()
  | _ -> Alcotest.fail "disallowed model must be refused on reschedule too");
  match Client.request c gen_request with
  | Client.Ok _ -> ()
  | _ -> Alcotest.fail "allowed model must still be served"

let test_daemon_shutdown_frame () =
  let dir = temp_dir () in
  let socket_path = Filename.concat dir "d.sock" in
  let d = Daemon.start (Daemon.default_config ~socket_path) in
  let c, _, _ = Client.connect (Client.Unix_socket socket_path) in
  Client.shutdown c;
  Client.close c;
  Daemon.wait d;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket_path);
  rm_rf dir

(* A socket file left behind by a crashed daemon (no listener) must not
   block the next start; a socket with a live listener must. *)
let test_daemon_stale_socket () =
  let dir = temp_dir () in
  let socket_path = Filename.concat dir "d.sock" in
  (* Simulate a crash: bind + listen, then close WITHOUT unlinking. *)
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket_path);
  Unix.listen fd 1;
  Unix.close fd;
  Alcotest.(check bool) "stale socket file exists" true (Sys.file_exists socket_path);
  let d = Daemon.start (Daemon.default_config ~socket_path) in
  let c = connect socket_path in
  (match Client.request c gen_request with
  | Client.Ok _ -> ()
  | _ -> Alcotest.fail "daemon behind a reclaimed socket must serve");
  Client.close c;
  Daemon.stop d;
  Daemon.wait d;
  rm_rf dir

let test_daemon_live_socket_not_clobbered () =
  let dir = temp_dir () in
  let socket_path = Filename.concat dir "d.sock" in
  let d = Daemon.start (Daemon.default_config ~socket_path) in
  (match Daemon.start (Daemon.default_config ~socket_path) with
  | _ -> Alcotest.fail "second daemon on a live socket must fail to start"
  | exception Failure msg ->
      Alcotest.(check bool) "error names the socket" true
        (let re = socket_path in
         String.length msg >= String.length re
         && String.sub msg 0 (String.length re) = re));
  (* The refusal must not have unlinked the live daemon's socket. *)
  let c = connect socket_path in
  (match Client.request c gen_request with
  | Client.Ok _ -> ()
  | _ -> Alcotest.fail "first daemon must survive the failed second start");
  Client.close c;
  Daemon.stop d;
  Daemon.wait d;
  rm_rf dir

let () =
  Alcotest.run "server"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "malformed" `Quick test_codec_malformed;
          Alcotest.test_case "framing" `Quick test_codec_framing;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "zero capacity" `Quick test_cache_zero_capacity;
          Alcotest.test_case "concurrent domains" `Quick test_cache_concurrent_domains;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "roundtrip" `Quick test_cache_persistence_roundtrip;
          Alcotest.test_case "missing dir" `Quick test_load_cache_missing_dir;
          Alcotest.test_case "old index ignored" `Quick test_load_cache_ignores_old_index;
          Alcotest.test_case "wrong proto" `Quick test_load_cache_wrong_proto;
          Alcotest.test_case "collided entry refused" `Quick test_load_cache_refuses_collision;
          Alcotest.test_case "torn save" `Quick test_load_cache_torn_save;
          Alcotest.test_case "disk entry polished" `Quick test_polish_disk_entry;
        ] );
      ( "keys",
        [
          Alcotest.test_case "content addressing" `Quick test_cache_key_content_addressing;
          Alcotest.test_case "pinned addresses" `Quick test_cache_key_pinned;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "serves and caches" `Quick test_daemon_serves_and_caches;
          Alcotest.test_case "topology memo sized with the cache" `Quick
            test_daemon_topo_memo_sized_with_cache;
          Alcotest.test_case "duty cycle + source" `Quick test_daemon_duty_cycle_and_explicit_source;
          Alcotest.test_case "bad requests" `Quick test_daemon_rejects_bad_requests;
          Alcotest.test_case "overload shedding" `Quick test_daemon_sheds_overload;
          Alcotest.test_case "warm restart" `Quick test_daemon_warm_restart;
          Alcotest.test_case "concurrent clients" `Quick test_daemon_concurrent_clients;
          Alcotest.test_case "reschedule" `Quick test_daemon_reschedule;
          Alcotest.test_case "reschedule bad delta" `Quick test_daemon_reschedule_bad_delta;
          Alcotest.test_case "put validated" `Quick test_daemon_put_validated;
          Alcotest.test_case "model-keyed cache" `Quick test_daemon_model_keyed_cache;
          Alcotest.test_case "serves every model" `Quick test_daemon_serves_every_model;
          Alcotest.test_case "allowed models" `Quick test_daemon_allowed_models;
          Alcotest.test_case "shutdown frame" `Quick test_daemon_shutdown_frame;
          Alcotest.test_case "stale socket reclaimed" `Quick test_daemon_stale_socket;
          Alcotest.test_case "live socket not clobbered" `Quick
            test_daemon_live_socket_not_clobbered;
        ] );
    ]
