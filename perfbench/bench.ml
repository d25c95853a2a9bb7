(* The repository's benchmark: three workloads timed end to end, and a
   traced run that times calls into each layer's public functions from
   outside. BENCHMARK.json gates cold_solve and hot_fleet; paper_sweep
   stays runnable but ungated, because on a shared 2-core host its
   memory-heavy passes moved by 15-22 % between runs minutes apart,
   which its bound cannot hold. Its layers (lib/workload, lib/proto)
   are still measured by every traced run.

     bench.exe --workload cold_solve|hot_fleet|paper_sweep
               --seed N --seconds S --trace 0|1

   Run from the repository root after building bin/mlbs_cli.exe (the
   run.sh next to this file does both). The last line of standard
   output is one JSON object: {"correct", "attempted", "failed",
   "metrics"}. With --trace 0 the metrics are the end-to-end ones, with
   --trace 1 the per-layer ones; everything before that line is a
   human-readable report (plan digest, per-round values, steadiness,
   stats deltas).

   Every per-layer row must be reported by every traced run, so a
   traced run replays the inputs of all three workloads, each with a
   third of --seconds, whatever --workload names; its spans are written
   to perfbench/_run/trace-<workload>-<seed>.jsonl. *)

module C = Mlbs_server.Codec
module Client = Mlbs_server.Client
module Daemon = Mlbs_server.Daemon
module Cache = Mlbs_server.Cache
module Ring = Mlbs_server.Ring
module Fleet = Mlbs_server.Fleet
module I = Mlbs_phy.Interference
module Rng = Mlbs_prng.Rng
module Graph = Mlbs_graph.Graph
module Network = Mlbs_wsn.Network
module Deployment = Mlbs_wsn.Deployment
module Churn = Mlbs_wsn.Churn
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Model = Mlbs_core.Model
module Schedule = Mlbs_core.Schedule
module Scheduler = Mlbs_core.Scheduler
module Reschedule = Mlbs_core.Reschedule
module Validate = Mlbs_sim.Validate
module Config = Mlbs_workload.Config
module Experiment = Mlbs_workload.Experiment
module Protocol = Mlbs_proto.Broadcast_protocol
module Obs = Mlbs_obs.Obs
module Metrics = Mlbs_obs.Metrics
module H = Perfbench_helpers.Helpers

let now = Unix.gettimeofday
let fsum = List.fold_left ( +. ) 0.
let mean = function [] -> 0. | l -> fsum l /. float_of_int (List.length l)
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Metric catalogue: names, units and bounds as in BENCHMARK.json.     *)

let end_to_end =
  [
    ("setup_s", "s", 0.25);
    ("throughput_rps", "1/s", 0.25);
    ("latency_p50_ms", "ms", 0.25);
    ("latency_tail_ms", "ms", 0.25);
    ("ok_ratio", "ratio", 0.01);
    ("latency_rounds_mean", "rounds", 0.05);
    ("transmissions_mean", "count", 0.05);
    ("peak_rss_mb", "MB", 0.25);
  ]

(* Per-layer rows: name, unit, and the end-to-end metric / workload the
   row should move (printed with the traced report). *)
let per_layer =
  [
    ("wsn.deploy_ms", "ms", "cold_solve latency_p50_ms+throughput_rps, paper_sweep setup_s");
    ("wsn.source_select_ms", "ms", "cold_solve latency_p50_ms+throughput_rps, paper_sweep setup_s");
    ("graph.digest_us", "us", "hot_fleet latency_tail_ms");
    ("phy.bind_ms", "ms", "cold_solve latency_p50_ms");
    ("phy.conflict_checks_per_solve", "count", "cold_solve throughput_rps (paper_sweep unchanged)");
    ("phy.power_evals_per_solve", "count", "cold_solve throughput_rps (paper_sweep unchanged)");
    ("core.solve_ms.udg_sync", "ms", "cold_solve throughput_rps+latency_tail_ms");
    ("core.solve_ms.udg_duty", "ms", "cold_solve throughput_rps+latency_tail_ms");
    ("core.solve_ms.mc2", "ms", "cold_solve throughput_rps+latency_tail_ms");
    ("core.solve_ms.sinr", "ms", "cold_solve throughput_rps+latency_tail_ms");
    ("core.states_per_solve", "count", "cold_solve throughput_rps, paper_sweep throughput_rps+latency_rounds_mean");
    ("core.tt_hit_ratio", "ratio", "cold_solve throughput_rps, paper_sweep throughput_rps+latency_rounds_mean");
    ("core.prunes_per_solve", "count", "cold_solve throughput_rps, paper_sweep throughput_rps+latency_rounds_mean");
    ("core.exhausted_per_solve", "count", "cold_solve throughput_rps, paper_sweep throughput_rps+latency_rounds_mean");
    ("core.istate_ops_per_solve", "count", "cold_solve throughput_rps");
    ("core.repair_ms", "ms", "hot_fleet latency_tail_ms+throughput_rps");
    ("core.repair_warm_ratio", "ratio", "hot_fleet latency_tail_ms+throughput_rps");
    ("sim.validate_ms", "ms", "paper_sweep throughput_rps");
    ("codec.encode_us", "us", "hot_fleet latency_p50_ms");
    ("codec.decode_us", "us", "hot_fleet latency_p50_ms");
    ("codec.reply_bytes", "bytes", "hot_fleet latency_p50_ms");
    ("cache.find_us", "us", "hot_fleet latency_p50_ms");
    ("daemon.hit_rtt_us", "us", "hot_fleet latency_p50_ms");
    ("fleet.hop_us", "us", "hot_fleet latency_p50_ms");
    ("cache.hit_ratio", "ratio", "hot_fleet throughput_rps");
    ("cache.evictions", "count", "hot_fleet throughput_rps");
    ("fleet.fill_hit_ratio", "ratio", "hot_fleet throughput_rps");
    ("daemon.solves_per_key", "ratio", "hot_fleet throughput_rps");
    ("daemon.overhead_ms", "ms", "cold_solve latency_p50_ms");
    ("daemon.rejected_ratio", "ratio", "ok_ratio (all workloads)");
    ("daemon.warmstart_hit_ratio", "ratio", "hot_fleet latency_tail_ms");
    ("proto.run_ms", "ms", "paper_sweep throughput_rps");
    ("proto.collisions_per_run", "count", "paper_sweep throughput_rps");
    ("proto.retransmissions_per_run", "count", "paper_sweep throughput_rps");
    ("workload.run_sync_ms", "ms", "paper_sweep latency_p50_ms");
    ("workload.run_async_ms", "ms", "paper_sweep latency_p50_ms");
    ("workload.run_faulty_ms", "ms", "paper_sweep latency_p50_ms");
    ("trace.overhead_ratio.cold_solve", "ratio", "traced / untraced cold_solve throughput_rps");
    ("trace.overhead_ratio.hot_fleet", "ratio", "traced / untraced hot_fleet throughput_rps");
    ("trace.overhead_ratio.paper_sweep", "ratio", "traced / untraced paper_sweep throughput_rps");
    ("layers.coverage_ratio.cold_solve", "ratio", "layer times / cold_solve end-to-end latency");
    ("layers.coverage_ratio.hot_fleet", "ratio", "layer times / hot_fleet end-to-end latency");
    ("layers.coverage_ratio.paper_sweep", "ratio", "layer times / paper_sweep end-to-end latency");
  ]

(* ------------------------------------------------------------------ *)
(* Server processes.                                                    *)

let cli = List.fold_left Filename.concat "_build" [ "default"; "bin"; "mlbs_cli.exe" ]
let run_dir = Filename.concat "perfbench" "_run"

type proc = { pid : int; ic : in_channel }

let live = ref []

let reap ?(grace = 10.) p =
  let deadline = now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ when now () < deadline ->
        Thread.delay 0.02;
        wait ()
    | 0, _ ->
        (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] p.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  close_in_noerr p.ic;
  live := List.filter (fun q -> q.pid <> p.pid) !live

(* Whatever happens, no server outlives the benchmark. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun p ->
          (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap ~grace:0. p)
        !live)

(* Start [mlbs ARGS] and read its stdout until the line [ready] accepts;
   returns the process and the lines read. *)
let spawn args ~ready =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let p = { pid; ic = Unix.in_channel_of_descr r } in
  live := p :: !live;
  let rec read acc =
    match input_line p.ic with
    | line -> if ready line then List.rev (line :: acc) else read (line :: acc)
    | exception End_of_file ->
        failwith (Printf.sprintf "mlbs %s exited before it was ready" (String.concat " " args))
  in
  (p, read [])

let starts_with pre s = String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

let port_of lines =
  let tag = "127.0.0.1:" in
  let rec find = function
    | [] -> failwith "no TCP port announced"
    | l :: rest -> (
        match find_sub l tag with
        | Some i ->
            let j = i + String.length tag in
            let k = ref j in
            while !k < String.length l && l.[!k] >= '0' && l.[!k] <= '9' do incr k done;
            int_of_string (String.sub l j (!k - j))
        | None -> find rest)
  in
  find lines

let stop_all procs =
  List.iter (fun p -> try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ()) procs;
  List.iter (fun p -> reap p) procs

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec go () =
        match input_line ic with
        | l when starts_with "VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> 0.
      in
      go ()

let connect ep =
  let c, _, _ = Client.connect ep in
  c

let stat kvs name = Option.value ~default:0 (List.assoc_opt name kvs)
let delta s0 s1 name = stat s1 name - stat s0 name
let ratio a b = if b <= 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Closed loop.                                                        *)

(* Each client thread claims the next plan index from a shared counter
   and serves it, until [limit] items are claimed or [deadline] passes;
   requests in flight finish, so the completed items are exactly the
   prefix [0, completed). Returns [(completed, wall seconds)]. *)
let closed_loop ?(from = 0) ~clients ~limit ~deadline step =
  let next = Atomic.make from in
  let t0 = now () in
  let last = Array.make (Array.length clients) t0 in
  let worker k () =
    let rec go () =
      if now () < deadline then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < limit then begin
          step clients.(k) i;
          last.(k) <- now ();
          go ()
        end
      end
    in
    go ()
  in
  let threads = Array.mapi (fun k _ -> Thread.create (worker k) ()) clients in
  Array.iter Thread.join threads;
  (min limit (Atomic.get next) - from, Array.fold_left Float.max t0 last -. t0)

(* ------------------------------------------------------------------ *)
(* Spans of the traced run: recorded by the benchmark around calls     *)
(* into the program, kept in memory, written out at the end.           *)

type span = { sid : int; parent : int; sname : string; st0 : float; st1 : float }

let spans = ref []
let span_ctr = Atomic.make 0
let span_m = Mutex.create ()

let record ?(parent = 0) name t0 t1 =
  let sid = Atomic.fetch_and_add span_ctr 1 + 1 in
  Mutex.lock span_m;
  spans := { sid; parent; sname = name; st0 = t0; st1 = t1 } :: !spans;
  Mutex.unlock span_m;
  sid

let timed ?parent name f =
  let t0 = now () in
  let r = f () in
  ignore (record ?parent name t0 (now ()));
  r

(* Mean duration of the spans called [name], in [scale] units per second. *)
let span_mean ~scale name =
  mean
    (List.filter_map
       (fun s -> if s.sname = name then Some ((s.st1 -. s.st0) *. scale) else None)
       !spans)

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"t0_us\":%.1f,\"dur_us\":%.1f}\n" s.sid
        s.parent s.sname (s.st0 *. 1e6) ((s.st1 -. s.st0) *. 1e6))
    (List.rev !spans);
  close_out oc

let metric_delta before name =
  Metrics.counter_value name - Option.value ~default:0 (List.assoc_opt name before)

let metric_counts () =
  List.map (fun (n, _) -> (n, Metrics.counter_value n)) (Metrics.snapshot ())

(* ------------------------------------------------------------------ *)
(* Requests shared by the workloads.                                    *)

let radius = Config.default.Config.radius
let min_ecc = Config.default.Config.min_ecc
let max_ecc = Config.default.Config.max_ecc

let gen_request ~model ~rate ~n seed =
  {
    C.policy = C.Gopt;
    rate;
    seed;
    topology = C.Gen { n; radius };
    source = None;
    start = 1;
    model;
  }

(* The deployment and source the daemon resolves for a [Gen] request. *)
let deploy ~n seed =
  Deployment.generate (Rng.create seed)
    {
      Deployment.n_nodes = n;
      width = Config.default.Config.width;
      height = Config.default.Config.height;
      radius;
      shape = Deployment.Uniform;
    }

let select_source net seed = Deployment.select_source (Rng.create seed) net ~min_ecc ~max_ecc

let system_of (req : C.request) net =
  match req.C.rate with
  | None -> Model.Sync
  | Some rate ->
      Model.Async (Wake_schedule.create ~rate ~n_nodes:(Network.n_nodes net) ~seed:req.C.seed ())

let sched_bytes = C.schedule_bytes

(* One served reply, reduced to what the checks need. *)
type served = { bytes : string; sched : Schedule.t }

let served_of = function
  | Client.Ok ok when ok.C.version = 0 ->
      Some { bytes = sched_bytes ok.C.schedule; sched = ok.C.schedule }
  | Client.Ok _ | Client.Rejected _ | Client.Error _ -> None

(* Seconds the hypervisor took from the VM's CPUs so far (the steal
   column of /proc/stat, in USER_HZ = 100 ticks a second, summed over
   the CPUs); 0 where it cannot be read. *)
let stolen_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> (
          match float_of_string_opt steal with Some t -> t /. 100. | None -> 0.)
      | _ | (exception End_of_file) -> 0.

(* Per-round end-to-end figures. *)
type round = {
  setup : float;  (** s *)
  rps : float;
  p50 : float;  (** ms *)
  tail : float;  (** ms *)
  tail_label : string;
  tail_beyond : int;
  samples : int;
  wall : float;  (** s, the timed window less the time stolen from it *)
  stolen : float;  (** share of the timed window the host stole *)
  rss : float;  (** MB *)
  lats : float array;  (** ms, by plan item: every round serves the same items *)
}

let summarize_latencies lats =
  let a = Array.copy lats in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0., 0., "p50", 0)
  else
    let label, p, beyond = H.tail_rank n in
    (H.percentile a (50, 100), H.percentile a p, label, beyond)

(* A shared host steals CPU time from the VM in episodes that lasted
   minutes and took 30-70 % of it, halving throughput on identical
   work. The timed window [wall] is therefore counted without the
   [stolen] seconds (the steal of all CPUs: the workloads keep about one
   CPU busy at a time, so that is how long they stood still), and each
   latency shrinks by the same share. *)
let make_round ~setup ~completed ~wall ~stolen ~lats ~rss =
  let share = if wall > 0. then Float.min 0.9 (stolen /. wall) else 0. in
  let wall = wall *. (1. -. share) in
  let lats = Array.map (fun l -> l *. (1. -. share)) lats in
  let p50, tail, tail_label, tail_beyond = summarize_latencies lats in
  {
    setup;
    rps = (if wall > 0. then float_of_int completed /. wall else 0.);
    p50;
    tail;
    tail_label;
    tail_beyond;
    samples = Array.length lats;
    wall;
    stolen = share;
    rss;
    lats;
  }

(* The end-to-end result of one workload invocation. *)
type result = {
  rounds : round list;
  setups : float list;  (** every set-up timed in the run *)
  attempted : int;
  ok : int;
  rounds_mean : float;
  tx_mean : float;
  checks_ok : bool;  (** determinism / identity checks *)
}

let common_means name per_round =
  (* [per_round]: (latency mean, transmissions mean) of each round over
     the items every round completed; they must agree exactly. *)
  match per_round with
  | [] -> (0., 0., false)
  | (l, t) :: rest ->
      let same = List.for_all (fun (l', t') -> l' = l && t' = t) rest in
      if not same then
        say "CHECK FAILED %s: latency_rounds_mean/transmissions_mean differ across rounds" name;
      (l, t, same)

(* ------------------------------------------------------------------ *)
(* cold_solve: one `mlbs serve` daemon, closed loop over one           *)
(* connection, every request a content address the daemon has not seen. *)

type cls = { cname : string; cmodel : I.t; crate : int option; cn : int; cbase : int }

let classes =
  [|
    { cname = "udg_sync"; cmodel = I.Udg; crate = None; cn = 300; cbase = 100_000 };
    { cname = "udg_duty"; cmodel = I.Udg; crate = Some 10; cn = 150; cbase = 200_000 };
    { cname = "mc2"; cmodel = I.Multichannel 2; crate = None; cn = 300; cbase = 300_000 };
    { cname = "sinr"; cmodel = I.Sinr I.default_sinr; crate = None; cn = 150; cbase = 400_000 };
  |]

let class_request ci seed =
  let c = classes.(ci) in
  gen_request ~model:c.cmodel ~rate:c.crate ~n:c.cn seed

(* The corpus: [per_class] deployments per class (seeds base+1 ..
   base+per_class), the same for every seed, so runs with different
   seeds measure the same solves (the SINR class is heavy-tailed: a
   seed-drawn sample of it moved throughput by 17 % and the tail by 27 %
   between seeds). It is sized from --seconds (five rounds over it
   fill the window at ~21 requests/s, the rate of a 2-core box), so a
   run serves a fixed amount of work. Item [4j + c]
   is deployment [j] of class [c]. *)
let cold_corpus ~seconds ~per_class_per_s =
  let per_class = max 2 (int_of_float (Float.round (per_class_per_s *. float_of_int seconds))) in
  Array.init (4 * per_class) (fun i ->
      let ci = i mod 4 in
      (ci, class_request ci (classes.(ci).cbase + 1 + (i / 4))))

(* The order a round serves the corpus in: requests cycle through the
   four classes, and within each class the deployments come in an order
   drawn from the workload seed and the round. *)
let cold_order ~seed ~round n =
  let per_class = n / 4 in
  let perms =
    Array.init 4 (fun ci ->
        let a = Array.init per_class Fun.id in
        Rng.shuffle (Rng.create ((seed * 7919) + (round * 31) + ci)) a;
        a)
  in
  Array.init n (fun i -> (4 * perms.(i mod 4).(i / 4)) + (i mod 4))

(* Warm-up: three deployments per class outside the corpus. *)
let cold_warmups =
  List.concat_map (fun ci -> List.init 3 (fun j -> class_request ci (classes.(ci).cbase - 1 - j))) [ 0; 1; 2; 3 ]

let plan_digest lines =
  let d = H.digest_lines lines in
  say "plan: %d items, digest %s" (List.length lines) d

type cold_server = { cproc : proc; csock : string; cstats : Client.t; csetup : float; cwarm_fail : int }

let start_cold ~tag =
  let sock = Filename.concat run_dir (Printf.sprintf "cold-%d-%s.sock" (Unix.getpid ()) tag) in
  let t0 = now () in
  (* One solver domain: with two, the dispatcher batches whatever is
     queued when it wakes, so runs alternated by timing luck between
     serial and paired solves and throughput moved by 17 %. *)
  let p, _ = spawn [ "serve"; "--socket"; sock; "--jobs"; "1" ] ~ready:(starts_with "jobs=") in
  let c = connect (Client.Unix_socket sock) in
  let fails =
    List.fold_left
      (fun acc r -> match served_of (Client.request c r) with Some _ -> acc | None -> acc + 1)
      0 cold_warmups
  in
  { cproc = p; csock = sock; cstats = c; csetup = now () -. t0; cwarm_fail = fails }

(* One connection: the daemon solves one request at a time, so a second
   connection only queued each request behind a seed-drawn neighbour and
   put that wait into the latencies. *)
let cold_clients s = [| connect (Client.Unix_socket s.csock) |]

let close_all cs = Array.iter Client.close cs

(* Serve the corpus in [order] in a closed loop; fills [lat] (ms) and
   [got], both indexed by corpus item. *)
let cold_loop ?(on_done = fun _ _ _ -> ()) s corpus order ~lat ~got =
  let clients = cold_clients s in
  let completed, wall =
    closed_loop ~clients ~limit:(Array.length order) ~deadline:infinity (fun c j ->
        let i = order.(j) in
        let t0 = now () in
        let r = try Client.request c (snd corpus.(i)) with _ -> Client.Error "connection" in
        let t1 = now () in
        lat.(i) <- (t1 -. t0) *. 1000.;
        got.(i) <- served_of r;
        on_done i (t0, t1) r)
  in
  close_all clients;
  (completed, wall)

(* Every served schedule replays clean under the request's model, and a
   seeded sample is byte-identical to the reference solve. *)
let check_cold ~seed plan (first : served option array) =
  let n = Array.length plan in
  let valid =
    Array.mapi
      (fun i (_, req) ->
        match first.(i) with
        | None -> false
        | Some s -> (Validate.check (Daemon.model_of req) s.sched).Validate.ok)
      plan
  in
  let rng = Rng.create (seed + 0xC01D) in
  for _ = 1 to min n 6 do
    let i = Rng.int rng n in
    match first.(i) with
    | Some s ->
        let _, reference = Daemon.solve (snd plan.(i)) in
        if sched_bytes reference <> s.bytes then begin
          say "CHECK FAILED cold_solve item %d differs from Daemon.solve" i;
          valid.(i) <- false
        end
    | None -> ()
  done;
  valid

let run_cold ~seed ~seconds =
  let plan = cold_corpus ~seconds ~per_class_per_s:1.05 in
  let n = Array.length plan in
  let n_rounds = 5 in
  let orders = List.init n_rounds (fun round -> cold_order ~seed ~round n) in
  plan_digest
    (List.concat_map
       (fun o ->
         Array.to_list
           (Array.map (fun i -> let ci, r = plan.(i) in Printf.sprintf "%s %d" classes.(ci).cname r.C.seed) o))
       orders);
  let first = Array.make n None in
  let runs =
    List.mapi (fun r order ->
        let s = start_cold ~tag:(string_of_int r) in
        let lat = Array.make n 0. and got = Array.make n None in
        let s0 = Client.stats s.cstats in
        let st0 = stolen_s () in
        let completed, wall = cold_loop s plan order ~lat ~got in
        let stolen = stolen_s () -. st0 in
        let s1 = Client.stats s.cstats in
        say "round %d daemon: requests=%d solves=%d rejected=%d errors=%d search states=%d cache misses=%d"
          r (delta s0 s1 "server/requests") (delta s0 s1 "server/solve_us")
          (delta s0 s1 "server/rejected") (delta s0 s1 "server/errors")
          (delta s0 s1 "search/states") (delta s0 s1 "server/cache/misses");
        let rss = peak_rss_mb s.cproc.pid in
        Client.close s.cstats;
        stop_all [ s.cproc ];
        if r = 0 then Array.blit got 0 first 0 n;
        let round =
          make_round ~setup:s.csetup ~completed ~wall ~stolen
            ~lats:(Array.sub lat 0 completed)
            ~rss
        in
        (round, got, completed, s.cwarm_fail))
      orders
  in
  let valid = check_cold ~seed plan first in
  let ok = ref 0 and attempted = ref 0 in
  let per_round =
    List.map
      (fun (_, got, _, warm_fail) ->
        attempted := !attempted + n + List.length cold_warmups;
        ok := !ok + List.length cold_warmups - warm_fail;
        let els = ref [] and txs = ref [] in
        Array.iteri
          (fun i g ->
            match (g, first.(i)) with
            | Some s, Some f when valid.(i) && s.bytes = f.bytes ->
                incr ok;
                els := float_of_int (Schedule.elapsed s.sched) :: !els;
                txs := float_of_int (Schedule.n_transmissions s.sched) :: !txs
            | _ -> ())
          got;
        (mean !els, mean !txs))
      runs
  in
  let rounds_mean, tx_mean, same = common_means "cold_solve" per_round in
  let rounds = List.map (fun (r, _, _, _) -> r) runs in
  {
    rounds;
    setups = List.map (fun r -> r.setup) rounds;
    attempted = !attempted;
    ok = !ok;
    rounds_mean;
    tx_mean;
    checks_ok = same;
  }

(* ------------------------------------------------------------------ *)
(* hot_fleet: a `mlbs fleet` front over two `serve --backend` shards;  *)
(* zipf traffic over warmed keys plus a few percent of repairs.        *)

let hot_keys = 64
let hot_n = 150
(* One request in every [repair_every] is a repair (~3 %). *)
let repair_every = 32
let zipf_s = 1.0
let drift_k = 3

(* One connection: with two, a hit to the shard that is solving a
   repair queued behind it, so throughput and the tail measured how the
   scheduler interleaved four processes on two cores. *)
let hot_conns = 1

type hot_item = Hit of int | Repair of { key : int; delta : C.delta }

type hot_plan = {
  reqs : C.request array;  (** the hot keys *)
  nets : Network.t array;  (** client-side replicas of their deployments *)
  sources : int array;
  items : hot_item array;
  warm_items : int array;  (** warm-up traffic: keys only *)
}

(* The key set (deployment seeds 500001..500064, rank order) and the
   sequence of repairs are fixed; the workload seed draws the zipf
   sequence of hits and where in each block of [repair_every] requests
   the block's repair falls. A repair costs some forty hits, so
   seed-drawn repairs (and a seed-drawn number of them) moved throughput
   by ~20 % from one seed to the next. *)
let hot_plan ~seed ~size =
  let rng = Rng.create ((seed * 0x9E37) + 0x4F7) in
  let rrng = Rng.create 0x4F7 in
  let kseeds = Array.init hot_keys (fun k -> 500_001 + k) in
  let reqs = Array.map (gen_request ~model:I.Udg ~rate:None ~n:hot_n) kseeds in
  let nets = Array.map (deploy ~n:hot_n) kseeds in
  let sources = Array.mapi (fun k net -> select_source net kseeds.(k)) nets in
  let z = H.zipf ~n:hot_keys ~s:zipf_s in
  let pick rng = H.zipf_draw z (Rng.float rng 1.0) in
  let digests = Hashtbl.create 1024 in
  (* A repair drifts [drift_k] nodes of a hot base; a drift that changes
     no edge, or that lands on a graph an earlier repair produced, would
     be a cache hit rather than a repair, so it is drawn again. *)
  let rec repair key =
    let d = Churn.drift rrng nets.(key) ~k:drift_k ~jitter:(radius /. 5.) in
    let g' = Graph.edit (Network.graph nets.(key)) ~add:[] ~remove:[] ~rewire:d.Churn.rewired in
    let dg = Graph.digest g' in
    if d.Churn.rewired = [] || Hashtbl.mem digests dg then repair key
    else begin
      Hashtbl.add digests dg ();
      Repair { key; delta = { C.d_added = []; d_removed = []; d_rewired = d.Churn.rewired } }
    end
  in
  let slot = ref 0 in
  let items =
    Array.init size (fun i ->
        if i mod repair_every = 0 then slot := Rng.int rng repair_every;
        if i mod repair_every = !slot then repair (pick rrng) else Hit (pick rng))
  in
  let warm_items = Array.init 2000 (fun _ -> pick rng) in
  { reqs; nets; sources; items; warm_items }

let hot_plan_lines p =
  Array.to_list (Array.map (fun r -> Printf.sprintf "key %d" r.C.seed) p.reqs)
  @ Array.to_list
      (Array.map
         (function
           | Hit k -> Printf.sprintf "h %d" k
           | Repair { key; delta } ->
               Printf.sprintf "r %d %s" key
                 (String.concat ";"
                    (List.map
                       (fun (u, l) -> string_of_int u ^ ":" ^ String.concat "," (List.map string_of_int l))
                       delta.C.d_rewired)))
         p.items)

(* The plain request equivalent to a repair ([Daemon.derived_request]),
   built from the client-side replica. *)
let derived p key (delta : C.delta) =
  let g' = Graph.edit (Network.graph p.nets.(key)) ~add:[] ~remove:[] ~rewire:delta.C.d_rewired in
  let adj = Array.init (Graph.n_nodes g') (fun u -> Array.to_list (Graph.neighbors g' u)) in
  { (p.reqs.(key)) with C.topology = C.Adj adj; source = Some p.sources.(key) }

type fleet = {
  shards : proc list;
  shard_eps : Client.endpoint list;
  front : proc;
  fsock : string;
  fstats : Client.t;
  hsetup : float;
  hwarm : served option array;  (** the warm reply of every hot key *)
  hwarm_fail : int;
}

(* Shards listen on fixed ports when they are free: the ring places keys
   by "127.0.0.1:PORT", so fixed ports give every run the same split of
   the hot keys between the shards (with ephemeral ports the hottest key
   lands on a random shard and throughput moves with it). *)
let shard_ports = [| 47311; 47312 |]

let spawn_shard i =
  let args port =
    [ "serve"; "--backend"; "--tcp"; string_of_int port; "--jobs"; "1"; "--cache"; "8192" ]
  in
  try spawn (args shard_ports.(i)) ~ready:(starts_with "jobs=")
  with Failure _ -> spawn (args 0) ~ready:(starts_with "jobs=")

(* Start the fleet and warm it: every hot key once through the front,
   then a burst of hits over the timed connections. *)
let start_fleet ~tag p ~check_hit =
  let t0 = now () in
  let spawned = List.init 2 (fun i -> spawn_shard i) in
  let ports = List.map (fun (_, lines) -> port_of lines) spawned in
  let sock = Filename.concat run_dir (Printf.sprintf "front-%d-%s.sock" (Unix.getpid ()) tag) in
  let front, _ =
    spawn
      [
        "fleet";
        "--backends";
        String.concat "," (List.map (Printf.sprintf "127.0.0.1:%d") ports);
        "--socket";
        sock;
      ]
      ~ready:(starts_with "shards:")
  in
  let c = connect (Client.Unix_socket sock) in
  let hwarm = Array.map (fun r -> served_of (Client.request c r)) p.reqs in
  let fails = ref (Array.fold_left (fun a w -> if w = None then a + 1 else a) 0 hwarm) in
  let clients = Array.init hot_conns (fun _ -> connect (Client.Unix_socket sock)) in
  let fm = Mutex.create () in
  ignore
    (closed_loop ~clients ~limit:(Array.length p.warm_items) ~deadline:infinity (fun cl i ->
         let k = p.warm_items.(i) in
         if not (check_hit hwarm k (Client.request cl p.reqs.(k))) then begin
           Mutex.lock fm;
           incr fails;
           Mutex.unlock fm
         end));
  close_all clients;
  {
    shards = List.map fst spawned;
    shard_eps = List.map (fun port -> Client.Tcp { host = "127.0.0.1"; port }) ports;
    front;
    fsock = sock;
    fstats = c;
    hsetup = now () -. t0;
    hwarm;
    hwarm_fail = !fails;
  }

let hit_ok (refs : served option array) k r =
  match (served_of r, refs.(k)) with Some s, Some f -> s.bytes = f.bytes | _ -> false

let fleet_stats f =
  let shard = List.map (fun ep ->
    let c = connect ep in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.stats c)) f.shard_eps in
  (Client.stats f.fstats, shard)

let stop_fleet f =
  Client.close f.fstats;
  stop_all (f.front :: f.shards)

type hot_outcome = {
  hlat : float array;
  hgood : bool array;  (** hits: correct bytes; repairs: decided later *)
  hrep : (int, served) Hashtbl.t;  (** served repairs by plan index *)
  hm : Mutex.t;
}

let hot_outcome n = { hlat = Array.make n 0.; hgood = Array.make n false; hrep = Hashtbl.create 1024; hm = Mutex.create () }

let hot_step p (refs : served option array) o ?(on_done = fun _ _ -> ()) c i =
  let t0 = now () in
  (match p.items.(i) with
  | Hit k ->
      let r = try Client.request c p.reqs.(k) with _ -> Client.Error "connection" in
      o.hlat.(i) <- (now () -. t0) *. 1000.;
      o.hgood.(i) <- hit_ok refs k r
  | Repair { key; delta } -> (
      let r = try Client.reschedule c ~base:p.reqs.(key) ~delta with _ -> Client.Error "connection" in
      o.hlat.(i) <- (now () -. t0) *. 1000.;
      match served_of r with
      | Some s ->
          Mutex.lock o.hm;
          Hashtbl.replace o.hrep i s;
          Mutex.unlock o.hm
      | None -> ()));
  on_done i (t0, now ())

(* Reference checks of the hot workload: every warmed key's schedule
   and every served repair replays clean under its model; a seeded
   sample of each is byte-compared with Daemon.solve (keys) and
   Daemon.derived_request + Daemon.solve (repairs). Returns the
   validity of each key and of each repair by plan index. *)
let check_hot ~seed p (keys : served option array) (repairs : (int, served) Hashtbl.t) =
  let rng = Rng.create (seed + 0x4075) in
  let kvalid =
    Array.mapi
      (fun k s ->
        match s with
        | None -> false
        | Some s -> (Validate.check (Daemon.model_of p.reqs.(k)) s.sched).Validate.ok)
      keys
  in
  for _ = 1 to 4 do
    let k = Rng.int rng hot_keys in
    match keys.(k) with
    | Some s ->
        let _, reference = Daemon.solve p.reqs.(k) in
        if sched_bytes reference <> s.bytes then begin
          say "CHECK FAILED hot key %d differs from Daemon.solve" k;
          kvalid.(k) <- false
        end
    | None -> ()
  done;
  let rvalid = Hashtbl.create (Hashtbl.length repairs) in
  Hashtbl.iter
    (fun i s ->
      match p.items.(i) with
      | Repair { key; delta } ->
          let d = derived p key delta in
          Hashtbl.replace rvalid i (Validate.check (Daemon.model_of d) s.sched).Validate.ok
      | Hit _ -> ())
    repairs;
  let idx = Array.of_seq (Hashtbl.to_seq_keys repairs) in
  Array.sort compare idx;
  if Array.length idx > 0 then
    for _ = 1 to 4 do
      let i = idx.(Rng.int rng (Array.length idx)) in
      match p.items.(i) with
      | Repair { key; delta } ->
          let d = Daemon.derived_request p.reqs.(key) delta in
          let _, reference = Daemon.solve d in
          if d <> derived p key delta || sched_bytes reference <> (Hashtbl.find repairs i).bytes
          then begin
            say "CHECK FAILED repair %d differs from Daemon.derived_request + Daemon.solve" i;
            Hashtbl.replace rvalid i false
          end
      | Hit _ -> ()
    done;
  (kvalid, rvalid)

let report_fleet_stats r (f0, sh0) (f1, sh1) =
  say "round %d front: requests=%d ok=%d rejected=%d fill_hits=%d reroutes=%d" r
    (delta f0 f1 "server/fleet/requests") (delta f0 f1 "server/fleet/replies_ok")
    (delta f0 f1 "server/fleet/rejected") (delta f0 f1 "server/fleet/fill_hits")
    (delta f0 f1 "server/fleet/reroutes");
  List.iteri
    (fun i (s0, s1) ->
      say
        "round %d shard%d: requests=%d cache hits=%d misses=%d evictions=%d solves=%d \
         rejected=%d warmstart hit=%d miss=%d"
        r i (delta s0 s1 "server/requests") (delta s0 s1 "server/cache/hits")
        (delta s0 s1 "server/cache/misses") (stat s1 "server/cache/evictions")
        (delta s0 s1 "server/solve_us") (delta s0 s1 "server/rejected")
        (delta s0 s1 "server/warmstart/hit") (delta s0 s1 "server/warmstart/miss"))
    (List.combine sh0 sh1)

(* Requests per second through the front over one connection on a
   2-core box. *)
let hot_rate_hint = 4500.

(* Every round serves the same [size] plan items, sized so that five
   rounds fill --seconds at [hot_rate_hint]. With a fixed window instead,
   a slower host served fewer repairs, so the shards' memory and the
   requests behind the tail moved with the host's speed. A round that
   takes twice its share of --seconds is cut there, so a run on a very
   slow host still ends in time; the latencies then cover the prefix
   every round served. *)
let run_hot ~seed ~seconds =
  let n_rounds = 5 in
  let window = float_of_int seconds /. float_of_int n_rounds in
  let size = max 1000 (int_of_float (window *. hot_rate_hint)) in
  let p = hot_plan ~seed ~size in
  plan_digest (hot_plan_lines p);
  let refs = ref None in
  let runs =
    List.init n_rounds (fun r ->
        let f =
          start_fleet ~tag:(string_of_int r) p ~check_hit:(fun warm k reply ->
              hit_ok (match !refs with Some x -> x | None -> warm) k reply)
        in
        (match !refs with None -> refs := Some f.hwarm | Some _ -> ());
        let refs = Option.get !refs in
        let s0 = fleet_stats f in
        let o = hot_outcome size in
        let st0 = stolen_s () in
        let completed, wall =
          let clients = Array.init hot_conns (fun _ -> connect (Client.Unix_socket f.fsock)) in
          let res =
            closed_loop ~clients ~limit:size ~deadline:(now () +. (2. *. window)) (hot_step p refs o)
          in
          close_all clients;
          res
        in
        let s1 = fleet_stats f in
        let rss = List.fold_left (fun a q -> a +. peak_rss_mb q.pid) 0. (f.front :: f.shards) in
        let warm_same =
          Array.for_all2
            (fun a b ->
              match (a, b) with Some x, Some y -> x.bytes = y.bytes | _ -> false)
            f.hwarm refs
        in
        if not warm_same then say "CHECK FAILED hot_fleet round %d warmed different schedules" r;
        stop_fleet f;
        report_fleet_stats r s0 s1;
        let round =
          make_round ~setup:f.hsetup ~completed ~wall ~stolen:(stolen_s () -. st0)
            ~lats:(Array.sub o.hlat 0 completed)
            ~rss
        in
        (round, o, completed, f.hwarm_fail, warm_same))
  in
  let refs = Option.get !refs in
  (* One canonical schedule per repair index: the first round that
     served it; the other rounds must match it byte for byte. *)
  let canon = Hashtbl.create 4096 in
  List.iter
    (fun (_, o, _, _, _) ->
      Hashtbl.iter (fun i s -> if not (Hashtbl.mem canon i) then Hashtbl.add canon i s) o.hrep)
    runs;
  let kvalid, rvalid = check_hot ~seed p refs canon in
  let common = List.fold_left (fun m (_, _, c, _, _) -> min m c) size runs in
  let attempted = ref 0 and ok = ref 0 and same_warm = ref true in
  let per_round =
    List.map
      (fun (_, o, completed, warm_fail, warm_same) ->
        same_warm := !same_warm && warm_same;
        let n_warm = hot_keys + Array.length p.warm_items in
        attempted := !attempted + completed + n_warm;
        ok := !ok + n_warm - warm_fail;
        let els = ref [] and txs = ref [] in
        for i = 0 to completed - 1 do
          let good, sched =
            match p.items.(i) with
            | Hit k -> (
                match refs.(k) with
                | Some s -> (o.hgood.(i) && kvalid.(k), Some s.sched)
                | None -> (false, None))
            | Repair _ -> (
                match (Hashtbl.find_opt o.hrep i, Hashtbl.find_opt canon i) with
                | Some s, Some c ->
                    (s.bytes = c.bytes && Hashtbl.find_opt rvalid i = Some true, Some s.sched)
                | _ -> (false, None))
          in
          if good then incr ok;
          match sched with
          | Some s when good && i < common ->
              els := float_of_int (Schedule.elapsed s) :: !els;
              txs := float_of_int (Schedule.n_transmissions s) :: !txs
          | _ -> ()
        done;
        (mean !els, mean !txs))
      runs
  in
  let rounds_mean, tx_mean, same = common_means "hot_fleet" per_round in
  let rounds = List.map (fun (r, _, _, _, _) -> r) runs in
  {
    rounds;
    setups = List.map (fun r -> r.setup) rounds;
    attempted = !attempted;
    ok = !ok;
    rounds_mean;
    tx_mean;
    checks_ok = same && !same_warm;
  }

(* ------------------------------------------------------------------ *)
(* paper_sweep: the paper's (n, seed) grid, single-threaded passes in  *)
(* child processes, at the Classic figure budgets with Validate on.    *)

(* The lower half of the paper's node counts: one pass over the full
   n = 50..300 grid takes about two minutes on a 2-core box (an n = 300
   instance alone takes ~16 s, mostly in run_faulty), which no run of
   this harness can fit. *)
let paper_counts = [ 50; 100; 150 ]
let paper_rate = 10
let paper_loss = 0.1
(* One pass over the grid takes ~3.5 s on a 2-core box; a run makes
   --seconds / 3.5 one-pass rounds (at least three). *)
let paper_pass_hint_s = 3.5
let paper_builds = 3

(* The fault plans keep the sweep's own fault seed: a seed-drawn one
   changed how long run_faulty's protocol runs, and with it throughput,
   by up to 2x between seeds. The workload seed sets the visiting
   orders. *)
let paper_cfg = { Config.default with Config.jobs = 1 }

let build_instances cfg =
  Array.of_list
    (List.concat_map
       (fun n ->
         List.map (fun s -> (n, s, Experiment.make_instance cfg ~n ~seed:s)) cfg.Config.seeds)
       paper_counts)

(* Set-up is building the sweep's instances; it is repeated and timed
   [paper_builds] times. *)
let paper_setup cfg =
  let times = ref [] and insts = ref [||] in
  for _ = 1 to paper_builds do
    (* Each build starts from the same collected heap, so the repeats
       time the same work. *)
    Gc.full_major ();
    let t0 = now () in
    insts := build_instances cfg;
    times := (now () -. t0) :: !times
  done;
  (List.rev !times, !insts)

type paper_result = {
  sync : Experiment.measurement list;
  async : Experiment.measurement list;
  faulty : Experiment.fault_measurement list;
}

let run_instance ?(on_span = fun _ _ _ -> ()) cfg (_, s, inst) =
  let wrap name f =
    let t0 = now () in
    let r = f () in
    on_span name t0 (now ());
    r
  in
  let sync = wrap "workload.run_sync" (fun () -> Experiment.run_sync cfg inst) in
  let async =
    wrap "workload.run_async" (fun () -> Experiment.run_async cfg ~rate:paper_rate ~inst_seed:s inst)
  in
  let faulty =
    wrap "workload.run_faulty" (fun () -> Experiment.run_faulty cfg ~inst_seed:s ~loss:paper_loss inst)
  in
  { sync; async; faulty }

(* Warm-up before a timed pass: the grid's smallest instances. *)
let paper_warmup cfg insts =
  Array.iter
    (fun ((n, _, _) as inst) -> if n = List.hd paper_counts then ignore (run_instance cfg inst))
    insts

let paper_valid r = List.for_all (fun (m : Experiment.measurement) -> m.valid) (r.sync @ r.async)

let paper_order ~seed ~pass k =
  let a = Array.init k Fun.id in
  Rng.shuffle (Rng.create ((seed * 104729) + pass)) a;
  a

let schedule_means rs =
  let ms = List.concat_map (fun r -> r.sync @ r.async) rs in
  ( mean (List.map (fun (m : Experiment.measurement) -> float_of_int m.elapsed) ms),
    mean (List.map (fun (m : Experiment.measurement) -> float_of_int m.transmissions) ms) )

(* One round of the sweep: [paper_builds] timed set-ups, a warm-up, then
   one pass over the grid in an order drawn from the seed and the round.
   Each round runs in a fresh process (see [run_paper]). *)
type paper_round = {
  p_setups : float list;
  p_lats : float array;  (** ms, by instance *)
  p_wall : float;
  p_stolen : float;
  p_rss : float;
  p_results : paper_result array;  (** per instance *)
  p_means : float * float;  (** latency and transmissions means *)
}

let paper_round ~seed ~round =
  let cfg = paper_cfg in
  let setups, insts = paper_setup cfg in
  let k = Array.length insts in
  paper_warmup cfg insts;
  let lats = Array.make k 0. in
  let results = Array.make k None in
  let st0 = stolen_s () in
  Array.iter
    (fun i ->
      (* Every instance starts from the same collected heap, so its time
         does not carry the major-GC debt of whichever instances the
         drawn order put before it. *)
      Gc.full_major ();
      let t = now () in
      let r = run_instance cfg insts.(i) in
      lats.(i) <- (now () -. t) *. 1000.;
      results.(i) <- Some r)
    (paper_order ~seed ~pass:round k);
  let results = Array.map Option.get results in
  {
    p_setups = setups;
    p_lats = lats;
    p_wall = Array.fold_left ( +. ) 0. lats /. 1000.;
    p_stolen = stolen_s () -. st0;
    p_rss = peak_rss_mb 0;
    p_results = results;
    p_means = schedule_means (Array.to_list results);
  }

(* The rounds run in child processes of this executable, one pass
   each: the speed of single-threaded work on a 2-core box moved by
   ~20 % from one process to the next, so a run that did everything in
   one process measured that draw as much as the program; nine short
   rounds average nine draws. *)
let paper_child ~seed ~round =
  let out = Filename.concat run_dir (Printf.sprintf "paper-%d-%d.bin" (Unix.getpid ()) round) in
  let args =
    [ "--paper-round"; string_of_int round; "--seed"; string_of_int seed; "--out"; out ]
  in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin Unix.stderr Unix.stderr
  in
  let p = { pid; ic = stdin } in
  live := p :: !live;
  let _, status = Unix.waitpid [] pid in
  live := List.filter (fun q -> q.pid <> pid) !live;
  if status <> Unix.WEXITED 0 then failwith "paper_sweep round failed";
  let ic = open_in_bin out in
  let (r : paper_round) = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic) in
  Sys.remove out;
  r

let run_paper ~seed ~seconds =
  let n_rounds = max 3 (int_of_float (Float.round (float_of_int seconds /. paper_pass_hint_s))) in
  let cfg = paper_cfg in
  let grid =
    List.concat_map (fun n -> List.map (fun s -> (n, s)) cfg.Config.seeds) paper_counts
    |> Array.of_list
  in
  plan_digest
    (Printf.sprintf "fault_seed %d loss %g rate %d" cfg.Config.fault_seed paper_loss paper_rate
    :: List.concat_map
         (fun round ->
           Array.to_list
             (Array.map
                (fun i -> let n, s = grid.(i) in Printf.sprintf "n %d seed %d" n s)
                (paper_order ~seed ~pass:round (Array.length grid))))
         (List.init n_rounds Fun.id));
  let rs = List.init n_rounds (fun round -> paper_child ~seed ~round) in
  (* An instance is correct when its schedules replay clean and it
     reproduces the first round's results exactly. *)
  let first = (List.hd rs).p_results in
  let ok =
    List.fold_left
      (fun a r ->
        a + Array.fold_left ( + ) 0 (Array.mapi (fun i x -> if paper_valid x && x = first.(i) then 1 else 0) r.p_results))
      0 rs
  in
  let rounds_mean, tx_mean, same = common_means "paper_sweep" (List.map (fun r -> r.p_means) rs) in
  let rounds =
    List.map
      (fun r ->
        make_round ~setup:(H.median r.p_setups) ~completed:(Array.length r.p_lats) ~wall:r.p_wall
          ~stolen:r.p_stolen
          ~lats:r.p_lats ~rss:r.p_rss)
      rs
  in
  {
    rounds;
    setups = List.concat_map (fun r -> r.p_setups) rs;
    attempted = List.fold_left (fun a r -> a + Array.length r.p_lats) 0 rs;
    ok;
    rounds_mean;
    tx_mean;
    checks_ok = same;
  }

(* ------------------------------------------------------------------ *)
(* Traced run: every workload's inputs replayed through the public      *)
(* functions of each layer, timed from outside.                         *)

type traced = { rows : (string * float) list; t_attempted : int; t_ok : int }

let cold_traced ~seed ~seconds =
  let plan = cold_corpus ~seconds ~per_class_per_s:0.5 in
  let n = Array.length plan in
  let order = cold_order ~seed ~round:0 n in
  (* The untraced and the traced pass serve the same requests, each on
     a fresh daemon, so their throughputs compare like for like. *)
  let pass ~traced =
    let s = start_cold ~tag:(if traced then "traced" else "plain") in
    let lat = Array.make n 0. and got = Array.make n None in
    let roots = Array.make n 0 and solve_us = Array.make n 0 in
    let st0 = Client.stats s.cstats in
    let completed, wall =
      cold_loop s plan order ~lat ~got ~on_done:(fun i (t0, t1) r ->
          if traced then roots.(i) <- record "cold.request" t0 t1;
          match r with Client.Ok ok -> solve_us.(i) <- ok.C.stats.C.solve_us | _ -> ())
    in
    let st1 = Client.stats s.cstats in
    Client.close s.cstats;
    stop_all [ s.cproc ];
    (float_of_int completed /. wall, lat, got, roots, solve_us, st0, st1, s.cwarm_fail)
  in
  let rps_u, _, got_u, _, _, _, _, wf_u = pass ~traced:false in
  let rps_t, lat, got, roots, solve_us, st0, st1, wf_t = pass ~traced:true in
  Obs.enable ~metrics:true ~tracing:false ();
  let m0 = metric_counts () in
  let ok = ref 0 and layer_sum = ref 0. and e2e_sum = ref 0. in
  let overhead = ref [] in
  Array.iteri
    (fun i (ci, (req : C.request)) ->
      let c = classes.(ci) and parent = roots.(i) in
      let t_layer = ref 0. in
      let layer name f =
        let t0 = now () in
        let r = f () in
        let t1 = now () in
        ignore (record ~parent name t0 t1);
        t_layer := !t_layer +. (t1 -. t0);
        r
      in
      let net = layer "wsn.deploy" (fun () -> deploy ~n:c.cn req.C.seed) in
      let source = layer "wsn.source_select" (fun () -> select_source net req.C.seed) in
      let model =
        layer "phy.bind" (fun () -> Model.create ~phy:req.C.model net (system_of req net))
      in
      let sched, _ =
        layer ("core.solve." ^ c.cname) (fun () ->
            Scheduler.run_warm model Scheduler.gopt ~source ~start:1 ())
      in
      match (got.(i), got_u.(i)) with
      | Some sv, Some su ->
          let payload =
            layer "codec.encode" (fun () ->
                C.encode
                  (C.Reply_ok
                     {
                       trace_id = "rq-000000-00000000";
                       cache_hit = false;
                       version = 0;
                       stats =
                         {
                           C.elapsed = Schedule.elapsed sv.sched;
                           transmissions = Schedule.n_transmissions sv.sched;
                           n_steps = List.length (Schedule.steps sv.sched);
                           search_states = 0;
                           solve_us = solve_us.(i);
                         };
                       schedule = sv.sched;
                     }))
          in
          ignore (layer "codec.decode" (fun () -> C.decode payload));
          let valid = timed ~parent "sim.validate" (fun () -> Validate.check model sv.sched) in
          if valid.Validate.ok && sched_bytes sched = sv.bytes && su.bytes = sv.bytes then
            ok := !ok + 2
          else say "CHECK FAILED traced cold item %d" i;
          layer_sum := !layer_sum +. !t_layer;
          e2e_sum := !e2e_sum +. (lat.(i) /. 1000.);
          overhead := (lat.(i) -. (float_of_int solve_us.(i) /. 1000.)) :: !overhead
      | _ -> say "CHECK FAILED traced cold item %d was not served" i)
    plan;
  let solves = delta st0 st1 "server/solve_us" in
  let per_solve name = ratio (delta st0 st1 name) solves in
  let istate =
    List.fold_left (fun a nm -> a + metric_delta m0 nm) 0 [ "istate/apply"; "istate/undo"; "istate/probe" ]
  in
  let prunes =
    List.fold_left
      (fun a nm -> a + delta st0 st1 nm)
      0
      [ "search/bound_prune_ecc"; "search/bound_prune_packing"; "search/dominance_prunes"; "search/bnb_prunes" ]
  in
  Obs.disable ();
  let tt_hit = delta st0 st1 "search/tt_hit" and tt_miss = delta st0 st1 "search/tt_miss" in
  let n_warm = List.length cold_warmups in
  {
    rows =
      [
        ("wsn.deploy_ms", span_mean ~scale:1e3 "wsn.deploy");
        ("wsn.source_select_ms", span_mean ~scale:1e3 "wsn.source_select");
        ("phy.bind_ms", span_mean ~scale:1e3 "phy.bind");
        ("phy.conflict_checks_per_solve", per_solve "phy/conflict_checks");
        ("phy.power_evals_per_solve", per_solve "phy/power_evals");
        ("core.states_per_solve", per_solve "search/states");
        ("core.tt_hit_ratio", ratio tt_hit (tt_hit + tt_miss));
        ("core.prunes_per_solve", ratio prunes solves);
        ("core.exhausted_per_solve", per_solve "search/exhausted");
        ("core.istate_ops_per_solve", ratio istate n);
        ("sim.validate_ms", span_mean ~scale:1e3 "sim.validate");
        ("daemon.overhead_ms", mean !overhead);
        ("cold.rejected", float_of_int (delta st0 st1 "server/rejected"));
        ("cold.requests", float_of_int (delta st0 st1 "server/requests"));
        ("trace.overhead_ratio.cold_solve", rps_t /. rps_u);
        ("layers.coverage_ratio.cold_solve", H.coverage ~layers:[ !layer_sum ] ~end_to_end:!e2e_sum);
      ]
      @ Array.to_list
          (Array.map
             (fun c -> ("core.solve_ms." ^ c.cname, span_mean ~scale:1e3 ("core.solve." ^ c.cname)))
             classes);
    t_attempted = (2 * n) + (2 * n_warm);
    t_ok = !ok + (2 * n_warm) - wf_u - wf_t;
  }

let hot_traced ~seed ~seconds =
  let window = Float.max 1. (float_of_int seconds /. 6.) in
  let size = max 1000 (int_of_float (window *. hot_rate_hint *. 2.5)) in
  let p = hot_plan ~seed ~size in
  let f = start_fleet ~tag:"traced" p ~check_hit:hit_ok in
  let refs = f.hwarm in
  let s0 = fleet_stats f in
  let o = hot_outcome size in
  let roots = Array.make size 0 in
  let loop ~from ~traced =
    let clients = Array.init hot_conns (fun _ -> connect (Client.Unix_socket f.fsock)) in
    let on_done i (t0, t1) = if traced then roots.(i) <- record "hot.request" t0 t1 in
    let r =
      closed_loop ~from ~clients ~limit:size ~deadline:(now () +. window) (hot_step p refs o ~on_done)
    in
    close_all clients;
    r
  in
  let u_done, u_wall = loop ~from:0 ~traced:false in
  let t_done, t_wall = loop ~from:u_done ~traced:true in
  let s1 = fleet_stats f in
  (* A hit sent straight to its shard against the same hit through the
     front, interleaved on single connections. *)
  let ring = Ring.create ~replicas:64 (List.map Fleet.endpoint_name f.shard_eps) in
  let shard_of =
    let names = List.map Fleet.endpoint_name f.shard_eps in
    Array.map
      (fun r ->
        let owner = Option.get (Ring.owner ring (Daemon.cache_key r)) in
        let rec idx i = function [] -> 0 | x :: rest -> if x = owner then i else idx (i + 1) rest in
        idx 0 names)
      p.reqs
  in
  let direct = Array.of_list (List.map connect f.shard_eps) in
  let front = connect (Client.Unix_socket f.fsock) in
  let rng = Rng.create (seed + 0x40B) and z = H.zipf ~n:hot_keys ~s:zipf_s in
  let d_us = ref [] and f_us = ref [] and probe_ok = ref 0 in
  let n_probe = 1000 in
  for _ = 1 to n_probe do
    let k = H.zipf_draw z (Rng.float rng 1.0) in
    let t0 = now () in
    let rd = Client.request direct.(shard_of.(k)) p.reqs.(k) in
    let t1 = now () in
    let rf = Client.request front p.reqs.(k) in
    let t2 = now () in
    d_us := ((t1 -. t0) *. 1e6) :: !d_us;
    f_us := ((t2 -. t1) *. 1e6) :: !f_us;
    if hit_ok refs k rd && hit_ok refs k rf then incr probe_ok
  done;
  Array.iter Client.close direct;
  Client.close front;
  let s2 = fleet_stats f in
  stop_fleet f;
  (* In-process replay of the traced requests. *)
  Obs.enable ~metrics:true ~tracing:false ();
  let m0 = metric_counts () in
  let replicas = Array.init 2 (fun _ -> Cache.create ~metrics_prefix:"perfbench/cache" ~capacity:8192 ()) in
  let keys = Array.map Daemon.cache_key p.reqs in
  Array.iteri (fun k key -> Cache.add replicas.(shard_of.(k)) key ()) keys;
  let base_models = Array.map (fun net -> Model.create net Model.Sync) p.nets in
  let family = ref None in
  let layer_sum = ref 0. and e2e_sum = ref 0. and bytes = ref [] in
  let reps = 32 in
  let each_rep name f =
    (* Sub-microsecond calls are timed [reps] at a time. *)
    let t0 = now () in
    for _ = 1 to reps do ignore (Sys.opaque_identity (f ())) done;
    let t1 = now () in
    let per = (t1 -. t0) /. float_of_int reps in
    ignore (record name t0 (t0 +. per));
    per
  in
  let codec (s : served) =
    let ok =
      {
        C.trace_id = "rq-000000-00000000";
        cache_hit = true;
        version = 0;
        stats =
          {
            C.elapsed = Schedule.elapsed s.sched;
            transmissions = Schedule.n_transmissions s.sched;
            n_steps = List.length (Schedule.steps s.sched);
            search_states = 0;
            solve_us = 0;
          };
        schedule = s.sched;
      }
    in
    let t0 = now () in
    let payload = C.encode (C.Reply_ok ok) in
    let t1 = now () in
    ignore (C.decode payload);
    let t2 = now () in
    ignore (record "codec.encode" t0 t1);
    ignore (record "codec.decode" t1 t2);
    bytes := float_of_int (String.length payload + 4) :: !bytes;
    t2 -. t0
  in
  let replay_limit = min (u_done + t_done) (u_done + 3000) in
  for i = u_done to replay_limit - 1 do
    let dt =
      match p.items.(i) with
      | Hit k -> (
          let find = each_rep "cache.find" (fun () -> Cache.find replicas.(shard_of.(k)) keys.(k)) in
          match refs.(k) with Some s -> find +. codec s | None -> find)
      | Repair { key; delta } -> (
          let g' =
            Graph.edit (Network.graph p.nets.(key)) ~add:[] ~remove:[] ~rewire:delta.C.d_rewired
          in
          let dig = each_rep "graph.digest" (fun () -> Graph.digest g') in
          match (refs.(key), Hashtbl.find_opt o.hrep i) with
          | Some base, Some served ->
              let t0 = now () in
              let rep =
                Reschedule.reschedule base_models.(key) Scheduler.gopt
                  ?snapshot:(Option.map snd !family) ?snapshot_graph:(Option.map fst !family)
                  ~source:p.sources.(key) ~old_schedule:base.sched ~added:[] ~removed:[]
                  ~rewired:delta.C.d_rewired ()
              in
              let t1 = now () in
              ignore (record ~parent:roots.(i) "core.repair" t0 t1);
              (match rep.Reschedule.snapshot with
              | Some s -> family := Some (Model.graph rep.Reschedule.model, s)
              | None -> ());
              if sched_bytes rep.Reschedule.schedule <> served.bytes then
                say "CHECK FAILED traced repair %d differs from Reschedule.reschedule" i;
              dig +. (t1 -. t0) +. codec served
          | _ -> dig)
    in
    layer_sum := !layer_sum +. dt;
    e2e_sum := !e2e_sum +. (o.hlat.(i) /. 1000.)
  done;
  Obs.disable ();
  let f0, sh0 = s0 and f1, sh1 = s1 and _, sh2 = s2 in
  let sum_shards sa sb name = List.fold_left2 (fun a x y -> a + delta x y name) 0 sa sb in
  let hits = sum_shards sh0 sh1 "server/cache/hits" and misses = sum_shards sh0 sh1 "server/cache/misses" in
  let owner_misses =
    List.fold_left
      (fun a i ->
        a + delta f0 f1 (Printf.sprintf "server/fleet/shard%d/requests" i)
        - delta f0 f1 (Printf.sprintf "server/fleet/shard%d/hits" i))
      0 [ 0; 1 ]
  in
  let solves = List.fold_left (fun a s -> a + stat s "server/solve_us") 0 sh2 in
  let repairs_sent = ref 0 in
  for i = 0 to u_done + t_done - 1 do
    match p.items.(i) with Repair _ -> incr repairs_sent | Hit _ -> ()
  done;
  let ws_hit = sum_shards sh0 sh1 "server/warmstart/hit" and ws_miss = sum_shards sh0 sh1 "server/warmstart/miss" in
  (* correctness: hits checked inline, repairs against their models *)
  let kvalid, rvalid = check_hot ~seed p refs o.hrep in
  let ok = ref 0 in
  for i = 0 to u_done + t_done - 1 do
    let good =
      match p.items.(i) with
      | Hit k -> o.hgood.(i) && kvalid.(k)
      | Repair _ -> Hashtbl.find_opt rvalid i = Some true
    in
    if good then incr ok
  done;
  let rtt_direct = mean !d_us and rtt_front = mean !f_us in
  let rep_mean name = span_mean ~scale:1e6 name in
  {
    rows =
      [
        ("graph.digest_us", rep_mean "graph.digest");
        ("core.repair_ms", span_mean ~scale:1e3 "core.repair");
        ( "core.repair_warm_ratio",
          ratio (metric_delta m0 "reschedule/warm") (metric_delta m0 "reschedule/repairs") );
        ("codec.encode_us", rep_mean "codec.encode");
        ("codec.decode_us", rep_mean "codec.decode");
        ("codec.reply_bytes", mean !bytes);
        ("cache.find_us", rep_mean "cache.find");
        ("daemon.hit_rtt_us", rtt_direct);
        ("fleet.hop_us", rtt_front -. rtt_direct);
        ("cache.hit_ratio", ratio hits (hits + misses));
        ("cache.evictions", float_of_int (List.fold_left (fun a s -> a + stat s "server/cache/evictions") 0 sh2));
        ("fleet.fill_hit_ratio", ratio (delta f0 f1 "server/fleet/fill_hits") owner_misses);
        ("daemon.solves_per_key", ratio solves (hot_keys + !repairs_sent));
        ("daemon.warmstart_hit_ratio", ratio ws_hit (ws_hit + ws_miss));
        ("hot.rejected", float_of_int (delta f0 f1 "server/fleet/rejected"));
        ("hot.requests", float_of_int (delta f0 f1 "server/fleet/requests"));
        ( "trace.overhead_ratio.hot_fleet",
          (float_of_int t_done /. t_wall) /. (float_of_int u_done /. u_wall) );
        ("layers.coverage_ratio.hot_fleet", H.coverage ~layers:[ !layer_sum ] ~end_to_end:!e2e_sum);
      ];
    t_attempted = u_done + t_done + (2 * n_probe) + hot_keys + Array.length p.warm_items;
    t_ok = !ok + (2 * !probe_ok) + hot_keys + Array.length p.warm_items - f.hwarm_fail;
  }

let paper_traced ~seed =
  let cfg = paper_cfg in
  let insts = build_instances cfg in
  let k = Array.length insts in
  let order = paper_order ~seed ~pass:0 k in
  let pass ~traced =
    let t0 = now () in
    let results =
      Array.map
        (fun i ->
          if traced then begin
            let kids = ref [] in
            let a = now () in
            let r = run_instance ~on_span:(fun name a b -> kids := (name, a, b) :: !kids) cfg insts.(i) in
            let root = record "paper.instance" a (now ()) in
            List.iter (fun (name, a, b) -> ignore (record ~parent:root name a b)) !kids;
            r
          end
          else run_instance cfg insts.(i))
        order
    in
    (float_of_int k /. (now () -. t0), results)
  in
  paper_warmup cfg insts;
  let rps_u, plain = pass ~traced:false in
  Obs.enable ~metrics:true ~tracing:false ();
  let rps_t, traced = pass ~traced:true in
  let m0 = metric_counts () in
  Array.iter
    (fun (_, s, (inst : Experiment.instance)) ->
      let model = Model.create inst.Experiment.net Model.Sync in
      let faults = Experiment.fault_plan cfg ~inst_seed:s ~loss:paper_loss inst in
      timed "proto.run" (fun () -> ignore (Protocol.run ~faults model ~source:inst.Experiment.source ~start:1)))
    insts;
  Obs.disable ();
  let ok = ref 0 in
  Array.iteri (fun j r -> if paper_valid r && r = traced.(j) then ok := !ok + 2) plain;
  let roots = List.filter (fun s -> s.sname = "paper.instance") !spans in
  let self =
    fsum
      (List.map
         (fun r ->
           let kids =
             List.filter_map (fun s -> if s.parent = r.sid then Some (s.st0, s.st1) else None) !spans
           in
           H.self_time ~t0:r.st0 ~t1:r.st1 kids)
         roots)
  in
  let total = fsum (List.map (fun r -> r.st1 -. r.st0) roots) in
  {
    rows =
      [
        ("workload.run_sync_ms", span_mean ~scale:1e3 "workload.run_sync");
        ("workload.run_async_ms", span_mean ~scale:1e3 "workload.run_async");
        ("workload.run_faulty_ms", span_mean ~scale:1e3 "workload.run_faulty");
        ("proto.run_ms", span_mean ~scale:1e3 "proto.run");
        ("proto.collisions_per_run", ratio (metric_delta m0 "proto/collisions") k);
        ("proto.retransmissions_per_run", ratio (metric_delta m0 "proto/retransmissions") k);
        ("trace.overhead_ratio.paper_sweep", rps_t /. rps_u);
        ("layers.coverage_ratio.paper_sweep", H.coverage ~layers:[ total -. self ] ~end_to_end:total);
      ];
    t_attempted = 2 * k;
    t_ok = !ok;
  }

(* ------------------------------------------------------------------ *)
(* Output.                                                              *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* Median, quartiles and spread of each metric over the runs of this
   invocation; a spread above the metric's bound is flagged. *)
let steadiness (res : result) =
  let at p r =
    let a = Array.copy r.lats in
    Array.sort compare a;
    if Array.length a = 0 then 0. else H.percentile a p
  in
  let _, tail_p, _ = H.tail_rank (List.fold_left (fun a r -> a + r.samples) 0 res.rounds) in
  let per = function
    | "setup_s" -> res.setups
    | "throughput_rps" -> List.map (fun r -> r.rps) res.rounds
    | "latency_p50_ms" -> List.map (at (50, 100)) res.rounds
    | "latency_tail_ms" -> List.map (at tail_p) res.rounds
    | "peak_rss_mb" -> List.map (fun r -> r.rss) res.rounds
    | _ -> []
  in
  say "steadiness over the runs of this invocation (median [q1, q3] spread / bound):";
  List.iter
    (fun (name, unit, bound) ->
      match per name with
      | [] -> ()
      | vs ->
          let q1, m, q3 = H.quartiles vs in
          let sp = H.spread vs in
          say "  %-20s %12.4f %-5s [%.4f, %.4f] n=%d spread %.3f / %.2f%s" name m unit q1 q3
            (List.length vs) sp bound
            (if sp > bound then "  UNRESOLVED" else ""))
    end_to_end

(* Throughput, memory and set-up are medians over the runs, so a burst of
   host contention that slows a minority of them does not move the
   result. Every run serves the same plan items, so each item's latency
   is its median across the runs, and the percentiles are taken over
   those; the tail percentile is chosen by the requests of all runs. *)
let end_to_end_values (res : result) =
  let med f = H.median (List.map f res.rounds) in
  let common = List.fold_left (fun m r -> min m r.samples) max_int res.rounds in
  let item_medians =
    Array.init common (fun i -> H.median (List.map (fun r -> r.lats.(i)) res.rounds))
  in
  Array.sort compare item_medians;
  let pooled = List.fold_left (fun a r -> a + r.samples) 0 res.rounds in
  let label, tail_p, beyond = H.tail_rank pooled in
  let at p = if common = 0 then 0. else H.percentile item_medians p in
  say "latency_tail_ms is %s: %d requests over all runs (%d beyond it), %d item medians" label
    pooled beyond common;
  [
    ("setup_s", H.median res.setups);
    ("throughput_rps", med (fun r -> r.rps));
    ("latency_p50_ms", at (50, 100));
    ("latency_tail_ms", at tail_p);
    ("ok_ratio", ratio res.ok res.attempted);
    ("latency_rounds_mean", res.rounds_mean);
    ("transmissions_mean", res.tx_mean);
    ("peak_rss_mb", med (fun r -> r.rss));
  ]

let run_untraced ~workload ~seed ~seconds =
  let res =
    match workload with
    | "cold_solve" -> run_cold ~seed ~seconds
    | "hot_fleet" -> run_hot ~seed ~seconds
    | _ -> run_paper ~seed ~seconds
  in
  List.iteri
    (fun i r ->
      say "run %d: setup %.4f s, %d requests, %.2f rps, p50 %.3f ms, %s %.3f ms (%d of %d samples beyond), peak rss %.1f MB, host steal %.1f %%"
        i r.setup r.samples r.rps r.p50 r.tail_label r.tail r.tail_beyond r.samples r.rss
        (100. *. r.stolen))
    res.rounds;
  steadiness res;
  let values = end_to_end_values res in
  let metrics = List.map (fun (name, unit, _) -> (name, unit, List.assoc name values)) end_to_end in
  print_result
    ~correct:(res.checks_ok && res.ok = res.attempted)
    ~attempted:res.attempted ~failed:(res.attempted - res.ok) metrics

let run_traced ~workload ~seed ~seconds =
  let share = max 1 (seconds / 3) in
  let parts =
    [ cold_traced ~seed ~seconds:share; hot_traced ~seed ~seconds:share; paper_traced ~seed ]
  in
  write_spans (Filename.concat run_dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed));
  let rows = List.concat_map (fun t -> t.rows) parts in
  let row name = List.assoc_opt name rows in
  let rejected, requests =
    ( Option.value ~default:0. (row "cold.rejected") +. Option.value ~default:0. (row "hot.rejected"),
      Option.value ~default:0. (row "cold.requests") +. Option.value ~default:0. (row "hot.requests") )
  in
  let rows = ("daemon.rejected_ratio", if requests > 0. then rejected /. requests else 0.) :: rows in
  say "per-layer rows (value unit  <- end-to-end metric and workload it should move):";
  let metrics =
    List.map
      (fun (name, unit, moves) ->
        match List.assoc_opt name rows with
        | Some v ->
            say "  %-34s %14.4f %-6s <- %s" name v unit moves;
            (name, unit, v)
        | None ->
            say "  %-34s absent: no traced replay produced it" name;
            (name, unit, 0.))
      per_layer
  in
  let attempted = List.fold_left (fun a t -> a + t.t_attempted) 0 parts in
  let ok = List.fold_left (fun a t -> a + t.t_ok) 0 parts in
  print_result ~correct:(ok = attempted) ~attempted ~failed:(attempted - ok) metrics

let usage () =
  prerr_endline
    "usage: bench.exe --workload cold_solve|hot_fleet|paper_sweep --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let paper_round_arg = ref None and out = ref "" in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--paper-round" :: r :: rest -> paper_round_arg := Some (int_of_string r); parse rest
    | "--out" :: f :: rest -> out := f; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := int_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  (match !paper_round_arg with
  | Some round ->
      let r = paper_round ~seed:!seed ~round in
      let oc = open_out_bin !out in
      Marshal.to_channel oc r [];
      close_out oc;
      exit 0
  | None -> ());
  if not (List.mem !workload [ "cold_solve"; "hot_fleet"; "paper_sweep" ]) || !seconds < 1 then usage ();
  if not (Sys.file_exists cli) then begin
    prerr_endline ("bench: " ^ cli ^ " is missing; build it first (see perfbench/run.sh)");
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  say "workload %s seed %d seconds %d trace %d" !workload !seed !seconds !trace;
  if !trace = 0 then run_untraced ~workload:!workload ~seed:!seed ~seconds:!seconds
  else run_traced ~workload:!workload ~seed:!seed ~seconds:!seconds
