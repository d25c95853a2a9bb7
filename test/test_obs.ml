(* Observability registry and tracing: sharded-merge determinism (the
   property the --jobs gates rely on), ring-buffer overflow keeping the
   newest events, and the disabled registry recording nothing. *)

module Obs = Mlbs_obs.Obs
module Metrics = Mlbs_obs.Metrics
module Trace = Mlbs_obs.Trace
module Export = Mlbs_obs.Export

(* Every test owns the global registry for its duration. *)
let with_obs ?(metrics = true) ?(tracing = false) f =
  Obs.enable ~metrics ~tracing ();
  Metrics.reset ();
  Trace.reset ();
  Fun.protect ~finally:Obs.disable f


(* --------------------- sharded merge determinism ------------------- *)

(* One op: (metric index, amount). Partitioning the op list over 1..4
   domains (each domain gets its own shard via DLS) must snapshot to
   the same totals as running everything on this domain — merge order
   and shard assignment cannot matter. *)
let qtest name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:50 ~name gen f)

let gen_ops =
  QCheck2.Gen.(
    pair (1 -- 4) (list_size (int_bound 60) (pair (int_bound 3) (int_bound 100))))

let cs = Array.init 4 (fun i -> Metrics.counter (Printf.sprintf "t/merge_c%d" i))
let hist = Metrics.histogram "t/merge_hist"

let apply_ops ops =
  List.iter
    (fun (i, v) ->
      Metrics.add cs.(i) v;
      Metrics.observe hist v)
    ops

let partition k xs =
  let buckets = Array.make k [] in
  List.iteri (fun i x -> buckets.(i mod k) <- x :: buckets.(i mod k)) xs;
  Array.to_list (Array.map List.rev buckets)

let prop_merge_matches_serial (k, ops) =
  let serial =
    with_obs (fun () ->
        apply_ops ops;
        Metrics.snapshot ())
  in
  let sharded =
    with_obs (fun () ->
        let parts = partition k ops in
        let domains = List.map (fun part -> Domain.spawn (fun () -> apply_ops part)) parts in
        List.iter Domain.join domains;
        Metrics.snapshot ())
  in
  (* Only this test's metrics: other suites' registrations share the
     registry but stay zero under reset. *)
  let mine = List.filter (fun (n, _) -> String.length n > 2 && String.sub n 0 2 = "t/") in
  mine serial = mine sharded

let test_merge_is_order_independent =
  qtest "sharded merge = serial totals" gen_ops prop_merge_matches_serial

let test_gauge_max () =
  with_obs (fun () ->
      let g = Metrics.gauge "t/gauge" in
      let ds =
        List.map (fun v -> Domain.spawn (fun () -> Metrics.set g v)) [ 3; 9; 5 ]
      in
      List.iter Domain.join ds;
      Metrics.set g 7;
      Alcotest.(check int) "max across shards" 9 (Metrics.counter_value "t/gauge"))

let test_histogram_buckets () =
  with_obs (fun () ->
      let h = Metrics.histogram "t/hist" in
      List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 1000 ];
      match List.assoc_opt "t/hist" (Metrics.snapshot ()) with
      | Some (Metrics.Dist { counts; total; sum }) ->
          Alcotest.(check int) "total" 6 total;
          Alcotest.(check int) "sum" 1010 sum;
          Alcotest.(check int) "bucket 0 (v<=0)" 1 counts.(0);
          Alcotest.(check int) "bucket 1 (v=1)" 1 counts.(1);
          Alcotest.(check int) "bucket 2 (2<=v<4)" 2 counts.(2);
          Alcotest.(check int) "bucket 3 (4<=v<8)" 1 counts.(3)
      | _ -> Alcotest.fail "histogram missing from snapshot")

let test_kind_clash () =
  Alcotest.check_raises "counter vs gauge"
    (Invalid_argument "Metrics: \"t/merge_c0\" already registered with another kind")
    (fun () -> ignore (Metrics.gauge "t/merge_c0"))

(* ------------------------- ring overflow --------------------------- *)

let test_ring_keeps_newest () =
  let saved = Trace.capacity () in
  Fun.protect
    ~finally:(fun () ->
      Trace.set_capacity saved;
      Trace.reset ())
    (fun () ->
      Trace.set_capacity 8;
      Obs.enable ~metrics:false ~tracing:true ();
      Trace.reset ();
      Fun.protect ~finally:Obs.disable (fun () ->
          for i = 1 to 20 do
            Trace.instant ~arg:i ~cat:"t" "tick"
          done;
          let evs = Trace.events () in
          Alcotest.(check int) "capacity bounds the ring" 8 (List.length evs);
          Alcotest.(check (list int))
            "newest survive, oldest overwritten"
            [ 13; 14; 15; 16; 17; 18; 19; 20 ]
            (List.map (fun e -> e.Trace.arg) evs)))

(* ------------------------ disabled registry ------------------------ *)

let test_disabled_records_nothing () =
  Obs.disable ();
  Metrics.reset ();
  Trace.reset ();
  let c = Metrics.counter "t/disabled" in
  Metrics.incr c;
  Metrics.add c 41;
  Metrics.observe hist 5;
  Trace.instant ~cat:"t" "never";
  let r = Trace.with_span ~cat:"t" "span" (fun () -> 17) in
  Alcotest.(check int) "span is transparent" 17 r;
  Alcotest.(check int) "counter stayed zero" 0 (Metrics.counter_value "t/disabled");
  Alcotest.(check int) "histogram stayed empty" 0 (Metrics.counter_value "t/merge_hist");
  Alcotest.(check int) "no events" 0 (List.length (Trace.events ()))

(* --------------------------- exporters ----------------------------- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_metrics_object_canonical () =
  with_obs (fun () ->
      Metrics.add cs.(0) 3;
      Metrics.observe hist 2;
      let once = Export.metrics_object (Metrics.snapshot ()) in
      let again = Export.metrics_object (Metrics.snapshot ()) in
      Alcotest.(check string) "rendering is stable" once again;
      Alcotest.(check bool) "schema tagged" true
        (contains ~sub:"\"schema\": \"mlbs-metrics-1\"" once))

(* A run that raises still leaves its artifacts: the registry is reset
   on entry, so the file holds only what the run recorded, and the
   switches are off again afterwards. *)
let test_with_files_dumps_on_exception () =
  let metrics_file = Filename.temp_file "mlbs_obs" ".metrics.json" in
  Fun.protect ~finally:(fun () -> Sys.remove metrics_file) @@ fun () ->
  with_obs (fun () -> Metrics.add cs.(1) 5);
  (match
     Export.with_files ~metrics_file (fun () ->
         Metrics.add cs.(1) 2;
         failwith "boom")
   with
  | () -> Alcotest.fail "the exception must pass through"
  | exception Failure _ -> ());
  Alcotest.(check bool) "metrics switched off" false (Obs.metrics_enabled ());
  let json = In_channel.with_open_bin metrics_file In_channel.input_all in
  Alcotest.(check bool) "counter of this run only" true
    (contains ~sub:"\"t/merge_c1\": 2" json)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          test_merge_is_order_independent;
          Alcotest.test_case "gauge merges by max" `Quick test_gauge_max;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "kind clash rejected" `Quick test_kind_clash;
        ] );
      ( "tracing",
        [ Alcotest.test_case "ring keeps newest" `Quick test_ring_keeps_newest ] );
      ( "disabled",
        [ Alcotest.test_case "records nothing" `Quick test_disabled_records_nothing ] );
      ( "export",
        [
          Alcotest.test_case "canonical object" `Quick test_metrics_object_canonical;
          Alcotest.test_case "files dumped on exception" `Quick
            test_with_files_dumps_on_exception;
        ] );
    ]
