(* Exporters: Chrome-trace/Perfetto JSON, a compact JSONL event log,
   and the metrics JSON object (written standalone and embedded in the
   bench dumps).

   Output is deliberately canonical — metrics sorted by name, fixed
   field order, %d/%.3f formatting — so two runs with equal counters
   produce byte-identical files (the determinism gate diffs them). *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* ---------------------------- trace JSON --------------------------- *)

(* The Trace Event Format's "complete" events (ph:"X"), timestamps in
   microseconds — loadable by Perfetto (ui.perfetto.dev) and
   chrome://tracing. One metadata event names the process; domains
   appear as one track per tid. *)
let write_chrome_trace path evs =
  with_out path (fun oc ->
      let p fmt = Printf.fprintf oc fmt in
      p "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
      p
        "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {\"name\": \"mlbs\"}}";
      List.iter
        (fun (e : Trace.ev) ->
          p
            ",\n\
            \  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \
             \"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"v\": %d}}"
            (escape e.Trace.name) (escape e.Trace.cat) e.Trace.ts_us e.Trace.dur_us
            e.Trace.tid e.Trace.arg)
        evs;
      p "\n]}\n")

let write_events_jsonl path evs =
  with_out path (fun oc ->
      List.iter
        (fun (e : Trace.ev) ->
          Printf.fprintf oc
            "{\"ts\": %.3f, \"dur\": %.3f, \"tid\": %d, \"cat\": \"%s\", \"name\": \
             \"%s\", \"v\": %d}\n"
            e.Trace.ts_us e.Trace.dur_us e.Trace.tid (escape e.Trace.cat)
            (escape e.Trace.name) e.Trace.arg)
        evs)

let jsonl_path trace_file =
  if Filename.check_suffix trace_file ".json" then
    Filename.chop_suffix trace_file ".json" ^ ".jsonl"
  else trace_file ^ ".jsonl"

(* --------------------------- metrics JSON -------------------------- *)

let metrics_object snap =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let counters = List.filter (fun (_, v) -> match v with Metrics.Count _ -> true | _ -> false) snap in
  let gauges = List.filter (fun (_, v) -> match v with Metrics.Level _ -> true | _ -> false) snap in
  let hists = List.filter (fun (_, v) -> match v with Metrics.Dist _ -> true | _ -> false) snap in
  let scalar_block title extract items =
    p "  \"%s\": {" title;
    List.iteri
      (fun i (name, v) ->
        p "%s    \"%s\": %d" (if i = 0 then "\n" else ",\n") (escape name)
          (extract v))
      items;
    if items = [] then p "},\n" else p "\n  },\n"
  in
  p "{\n";
  p "  \"schema\": \"mlbs-metrics-1\",\n";
  scalar_block "counters" (function Metrics.Count n -> n | _ -> 0) counters;
  scalar_block "gauges" (function Metrics.Level n -> n | _ -> 0) gauges;
  p "  \"histograms\": {";
  List.iteri
    (fun i (name, v) ->
      match v with
      | Metrics.Dist { counts; total; sum } ->
          p "%s    \"%s\": {\"total\": %d, \"sum\": %d, \"buckets\": ["
            (if i = 0 then "\n" else ",\n")
            (escape name) total sum;
          let first = ref true in
          Array.iteri
            (fun b c ->
              if c > 0 then begin
                p "%s{\"lt\": %d, \"count\": %d}" (if !first then "" else ", ")
                  (Metrics.bucket_lt b) c;
                first := false
              end)
            counts;
          p "]}"
      | _ -> ())
    hists;
  if hists = [] then p "}\n" else p "\n  }\n";
  p "}";
  Buffer.contents buf

let write_metrics path snap =
  with_out path (fun oc ->
      output_string oc (metrics_object snap);
      output_char oc '\n')

(* ----------------------------- one-stop ---------------------------- *)

let dump ?trace_file ?metrics_file () =
  (match trace_file with
  | Some path ->
      let evs = Trace.events () in
      write_chrome_trace path evs;
      write_events_jsonl (jsonl_path path) evs
  | None -> ());
  match metrics_file with
  | Some path -> write_metrics path (Metrics.snapshot ())
  | None -> ()

let with_files ?trace_file ?metrics_file f =
  match (trace_file, metrics_file) with
  | None, None -> f ()
  | _ ->
      (* Start from a clean registry so the artifacts describe this run
         only, then dump whatever was requested — also on exceptions,
         so a crashed run still leaves its telemetry behind. *)
      Obs.enable ~metrics:(metrics_file <> None) ~tracing:(trace_file <> None) ();
      if metrics_file <> None then Metrics.reset ();
      if trace_file <> None then Trace.reset ();
      Fun.protect
        ~finally:(fun () ->
          Obs.disable ();
          dump ?trace_file ?metrics_file ())
        f
