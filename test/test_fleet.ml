module Codec = Mlbs_server.Codec
module Daemon = Mlbs_server.Daemon
module Fleet = Mlbs_server.Fleet
module Client = Mlbs_server.Client
module Ring = Mlbs_server.Ring

let temp_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "mlbs_fleet_%d_%d" (Unix.getpid ()) !ctr)
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

let gen_request seed =
  {
    Codec.policy = Codec.Gopt;
    rate = None;
    seed;
    topology = Codec.Gen { n = 40; radius = 10.0 };
    source = None;
    start = 1;
    model = Mlbs_phy.Interference.Udg;
  }

(* ------------------------------- ring ------------------------------ *)

let names_gen =
  QCheck.Gen.(
    let name = map (Printf.sprintf "node%d") (int_range 0 31) in
    list_size (int_range 1 12) name)

let key_gen = QCheck.Gen.(map (Printf.sprintf "key:%d") (int_range 0 100_000))

let arb_names = QCheck.make ~print:(String.concat ",") names_gen
let arb_names_key = QCheck.pair arb_names (QCheck.make ~print:Fun.id key_gen)

let qcheck_ring_deterministic =
  QCheck.Test.make ~name:"owner is deterministic and order-independent" ~count:200
    arb_names_key (fun (names, key) ->
      let r1 = Ring.create names in
      let r2 = Ring.create (List.rev names) in
      Ring.owner r1 key = Ring.owner r2 key
      && Ring.owner r1 key = Ring.owner (Ring.create names) key)

let qcheck_ring_membership =
  QCheck.Test.make ~name:"owner is a member" ~count:200 arb_names_key
    (fun (names, key) ->
      let r = Ring.create names in
      match Ring.owner r key with
      | None -> names = []
      | Some o -> List.mem o (Ring.nodes r))

(* Adding one member must only move keys TO the new member; keys that
   move anywhere else indicate unstable placement. *)
let qcheck_ring_minimal_movement_add =
  QCheck.Test.make ~name:"adding a member only claims keys for itself" ~count:100
    arb_names (fun names ->
      QCheck.assume (names <> []);
      let r = Ring.create names in
      let r' = Ring.add r "node-new" in
      let ok = ref true in
      for i = 0 to 499 do
        let key = Printf.sprintf "key:%d" i in
        let before = Ring.owner r key and after = Ring.owner r' key in
        if before <> after && after <> Some "node-new" then ok := false
      done;
      !ok)

(* Removing a member must only re-home the keys it owned. *)
let qcheck_ring_minimal_movement_remove =
  QCheck.Test.make ~name:"removing a member only moves its own keys" ~count:100
    arb_names (fun names ->
      QCheck.assume (List.length (Ring.nodes (Ring.create names)) >= 2);
      let r = Ring.create names in
      let victim = List.hd (Ring.nodes r) in
      let r' = Ring.remove r victim in
      let ok = ref true in
      for i = 0 to 499 do
        let key = Printf.sprintf "key:%d" i in
        let before = Ring.owner r key and after = Ring.owner r' key in
        if before <> Some victim && before <> after then ok := false
      done;
      !ok)

let test_ring_balance () =
  let names = List.init 4 (Printf.sprintf "shard%d") in
  let r = Ring.create names in
  let counts = Hashtbl.create 4 in
  for i = 0 to 9_999 do
    match Ring.owner r (Printf.sprintf "key:%d" i) with
    | Some o -> Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o))
    | None -> Alcotest.fail "non-empty ring owned nothing"
  done;
  Hashtbl.iter
    (fun name c ->
      if c < 1_000 || c > 5_000 then
        Alcotest.failf "grossly unbalanced ring: %s owns %d/10000 keys" name c)
    counts;
  Alcotest.(check int) "all members own something" 4 (Hashtbl.length counts)

(* ------------------------------ fleet e2e -------------------------- *)

let start_backend () =
  Daemon.start
    {
      (Daemon.default_config ~socket_path:"unused") with
      Daemon.socket_path = None;
      tcp_port = Some 0;
      jobs = 1;
      cache_capacity = 32;
    }

let backend_endpoint d =
  match Daemon.tcp_port d with
  | Some port -> Client.Tcp { host = "127.0.0.1"; port }
  | None -> Alcotest.fail "backend has no TCP port"

let with_fleet ?(n_backends = 2) f =
  let dir = temp_dir () in
  let socket_path = Filename.concat dir "front.sock" in
  let backends = List.init n_backends (fun _ -> start_backend ()) in
  let eps = List.map backend_endpoint backends in
  let fcfg = { (Fleet.default_config ~backends:eps ~socket_path) with Fleet.health_period = 0.2 } in
  let t = Fleet.start fcfg in
  let finish () =
    Fleet.stop t;
    Fleet.wait t;
    List.iter
      (fun d ->
        Daemon.stop d;
        Daemon.wait d)
      backends;
    rm_rf dir
  in
  Fun.protect ~finally:finish (fun () -> f socket_path t backends eps)

let connect path =
  let c, _, _ = Client.connect (Client.Unix_socket path) in
  c

let request_ok c req =
  match Client.request_retry ~attempts:8 c req with
  | Client.Ok ok -> ok
  | Client.Rejected _ -> Alcotest.fail "fleet rejected a test request"
  | Client.Error m -> Alcotest.failf "fleet error: %s" m

let test_fleet_serves_and_routes () =
  with_fleet @@ fun socket _t _backends eps ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let ring = Ring.create (List.map Fleet.endpoint_name eps) in
  let seen_owner = Hashtbl.create 8 in
  for seed = 1 to 6 do
    let req = gen_request seed in
    let ok = request_ok c req in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d first solve is a miss" seed)
      false ok.Codec.cache_hit;
    let _, direct = Daemon.solve req in
    Alcotest.(check string)
      (Printf.sprintf "seed %d byte-identical to direct scheduler" seed)
      (Codec.schedule_bytes direct)
      (Codec.schedule_bytes ok.Codec.schedule);
    let again = request_ok c req in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d repeat is a cache hit" seed)
      true again.Codec.cache_hit;
    Hashtbl.replace seen_owner
      (Option.get (Ring.owner ring (Daemon.cache_key req)))
      ()
  done;
  (* Verify routing against the model ring: ask every backend directly
     for each request — only its predicted owner answers from cache. *)
  List.iter
    (fun ep ->
      let bc, _, _ = Client.connect ep in
      Fun.protect ~finally:(fun () -> Client.close bc) @@ fun () ->
      for seed = 1 to 6 do
        let req = gen_request seed in
        let is_owner =
          Ring.owner ring (Daemon.cache_key req) = Some (Fleet.endpoint_name ep)
        in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d cached at %s iff it is the owner" seed
             (Fleet.endpoint_name ep))
          is_owner (request_ok bc req).Codec.cache_hit
      done)
    eps

(* The front sends each request once, to its owner: K distinct cold
   requests through three shards cost the backends K schedule-cache
   misses in all, one solve each, and no probe of any other shard. The
   backends share this process's metrics registry. *)
let test_fleet_one_backend_frame_per_request () =
  with_fleet ~n_backends:3 @@ fun socket _t _backends _eps ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let k = 8 in
  let misses () = Mlbs_obs.Metrics.counter_value "server/cache/misses" in
  let m0 = misses () in
  for i = 1 to k do
    let ok = request_ok c (gen_request (200 + i)) in
    Alcotest.(check bool) (Printf.sprintf "request %d is cold" i) false ok.Codec.cache_hit
  done;
  Alcotest.(check int) "one backend cache miss per cold request" k (misses () - m0)

(* Kill a backend, then re-issue requests that it owned: the fleet must
   re-route to the surviving shards and the replies must stay
   byte-identical to the direct scheduler. *)
let test_fleet_backend_death_failover () =
  with_fleet ~n_backends:3 @@ fun socket t backends _eps ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let reqs = List.init 6 (fun i -> gen_request (100 + i)) in
  let direct =
    List.map (fun r -> Codec.schedule_bytes (snd (Daemon.solve r))) reqs
  in
  List.iter (fun r -> ignore (request_ok c r)) reqs;
  Alcotest.(check int) "three shards alive" 3 (List.length (Fleet.alive_backends t));
  (* Hard-stop one backend (connections start failing immediately). *)
  let victim = List.hd backends in
  Daemon.stop victim;
  Daemon.wait victim;
  List.iter2
    (fun r want ->
      let ok = request_ok c r in
      Alcotest.(check string) "re-routed reply byte-identical" want
        (Codec.schedule_bytes ok.Codec.schedule))
    reqs direct;
  (* The health loop (period 0.2 s) must eventually drop the dead shard
     from the ring. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    List.length (Fleet.alive_backends t) > 2 && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.05
  done;
  Alcotest.(check int) "dead shard left the ring" 2
    (List.length (Fleet.alive_backends t));
  let kvs =
    let sc = connect socket in
    Fun.protect ~finally:(fun () -> Client.close sc) (fun () -> Client.stats sc)
  in
  Alcotest.(check bool) "death recorded in fleet metrics" true
    (Option.value ~default:0 (List.assoc_opt "server/fleet/deaths" kvs) >= 1)

let test_fleet_reschedule_routed () =
  with_fleet @@ fun socket _t _backends _eps ->
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let base = gen_request 7 in
  ignore (request_ok c base);
  let delta = { Codec.d_added = []; d_removed = []; d_rewired = [] } in
  match Client.reschedule_retry ~attempts:8 c ~base ~delta with
  | Client.Ok ok ->
      let derived = Daemon.derived_request base delta in
      let _, direct = Daemon.solve derived in
      Alcotest.(check string) "reschedule through the fleet byte-identical"
        (Codec.schedule_bytes direct)
        (Codec.schedule_bytes ok.Codec.schedule)
  | Client.Rejected _ -> Alcotest.fail "fleet rejected reschedule"
  | Client.Error m -> Alcotest.failf "fleet reschedule error: %s" m

(* A reschedule's answer is filed under its derived request's address,
   so the front must route it there: on four shards that owner usually
   differs from the base's, and a later plain request for the edited
   graph must find the answer where the ring sends it. *)
let test_fleet_reschedule_files_at_derived_owner () =
  with_fleet ~n_backends:4 @@ fun socket _t _backends eps ->
  let ring = Ring.create (List.map Fleet.endpoint_name eps) in
  let owner key = Option.get (Ring.owner ring key) in
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let moved = ref 0 in
  let derived =
    List.init 12 (fun i ->
        let base = gen_request (i + 1) in
        (* One added edge: node 0 to its first non-neighbour. *)
        let g = Mlbs_core.Model.graph (Daemon.model_of base) in
        let v = List.find (fun v -> v > 0 && not (Mlbs_graph.Graph.mem_edge g 0 v)) (List.init 40 Fun.id) in
        let delta = { Codec.d_added = [ (0, v) ]; d_removed = []; d_rewired = [] } in
        let derived = Daemon.derived_request base delta in
        Alcotest.(check string) "reschedule_key = cache_key of the derived request"
          (Daemon.cache_key derived) (Daemon.reschedule_key base delta);
        if owner (Daemon.cache_key base) <> owner (Daemon.cache_key derived) then incr moved;
        (match Client.reschedule_retry ~attempts:8 c ~base ~delta with
        | Client.Ok _ -> ()
        | Client.Rejected _ -> Alcotest.fail "fleet rejected reschedule"
        | Client.Error m -> Alcotest.failf "fleet reschedule error: %s" m);
        derived)
  in
  Alcotest.(check bool) "some derived addresses live on another shard" true (!moved > 0);
  List.iteri
    (fun i req ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: plain derived request is a cache hit" (i + 1))
        true (request_ok c req).Codec.cache_hit)
    derived

(* ---------------------------- server shell ------------------------- *)

(* The daemon and the front share one server shell, so both must keep
   the same contract for the frames it owns. *)

let raw_connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let roundtrip fd msg =
  Codec.send fd msg;
  Codec.recv fd

let stat socket name =
  let c = connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Option.value ~default:0 (List.assoc_opt name (Client.stats c))

let returns_within secs f =
  let finished = Atomic.make false in
  let th = Thread.create (fun () -> f (); Atomic.set finished true) () in
  let deadline = Unix.gettimeofday () +. secs in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  Atomic.get finished && (Thread.join th; true)

let check_shell ~socket ~prefix ~wait =
  let fd = raw_connect socket in
  let errors0 = stat socket (prefix ^ "/errors") in
  (match
     roundtrip fd
       (Codec.Hello { proto = Codec.protocol_version; version = Mlbs_server.Version.version })
   with
  | Some (Codec.Hello_ack { proto; version_match; _ }) ->
      Alcotest.(check int) "protocol" Codec.protocol_version proto;
      Alcotest.(check bool) "version_match" true version_match
  | _ -> Alcotest.fail "Hello not answered with Hello_ack");
  (* No server takes a schedule off the wire, even a correct one. *)
  let req = gen_request 1 in
  let stats, schedule = Daemon.solve req in
  (match roundtrip fd (Codec.Put { req; version = 0; stats; schedule }) with
  | Some (Codec.Reply_error _) -> ()
  | _ -> Alcotest.fail "unexpected frame not answered with Reply_error");
  (match roundtrip fd Codec.Stats_request with
  | Some (Codec.Stats_reply _) -> ()
  | _ -> Alcotest.fail "connection unusable after an unexpected frame");
  Unix.close fd;
  Alcotest.(check int) "unexpected frame counted as an error" (errors0 + 1)
    (stat socket (prefix ^ "/errors"));
  let bad0 = stat socket (prefix ^ "/bad_frames") in
  let fd = raw_connect socket in
  Codec.send_payload fd "\xee";
  (match Codec.recv fd with
  | Some (Codec.Reply_error "malformed frame") -> ()
  | _ -> Alcotest.fail "garbage frame not answered \"malformed frame\"");
  Alcotest.(check bool) "connection closed after a garbage frame" true
    (Codec.recv_payload fd = None);
  Unix.close fd;
  Alcotest.(check int) "garbage frame counted" (bad0 + 1) (stat socket (prefix ^ "/bad_frames"));
  let fd = raw_connect socket in
  (match roundtrip fd Codec.Shutdown with
  | Some Codec.Shutdown_ack -> ()
  | _ -> Alcotest.fail "Shutdown not answered with Shutdown_ack");
  Unix.close fd;
  Alcotest.(check bool) "wait returns after Shutdown" true (returns_within 5. wait)

let test_shell_daemon () =
  let dir = temp_dir () in
  let socket_path = Filename.concat dir "daemon.sock" in
  let d = Daemon.start { (Daemon.default_config ~socket_path) with Daemon.jobs = 1 } in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop d;
      Daemon.wait d;
      rm_rf dir)
    (fun () -> check_shell ~socket:socket_path ~prefix:"server" ~wait:(fun () -> Daemon.wait d))

let test_shell_fleet () =
  with_fleet @@ fun socket t _backends _eps ->
  check_shell ~socket ~prefix:"server/fleet" ~wait:(fun () -> Fleet.wait t)

let () =
  Alcotest.run "fleet"
    [
      ( "ring",
        [
          QCheck_alcotest.to_alcotest qcheck_ring_deterministic;
          QCheck_alcotest.to_alcotest qcheck_ring_membership;
          QCheck_alcotest.to_alcotest qcheck_ring_minimal_movement_add;
          QCheck_alcotest.to_alcotest qcheck_ring_minimal_movement_remove;
          Alcotest.test_case "balance" `Quick test_ring_balance;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "serves and routes" `Quick test_fleet_serves_and_routes;
          Alcotest.test_case "one backend frame per request" `Quick
            test_fleet_one_backend_frame_per_request;
          Alcotest.test_case "backend death failover" `Quick
            test_fleet_backend_death_failover;
          Alcotest.test_case "reschedule routed" `Quick test_fleet_reschedule_routed;
          Alcotest.test_case "reschedule at derived owner" `Quick
            test_fleet_reschedule_files_at_derived_owner;
        ] );
      ( "shell",
        [
          Alcotest.test_case "daemon" `Quick test_shell_daemon;
          Alcotest.test_case "fleet front" `Quick test_shell_fleet;
        ] );
    ]
