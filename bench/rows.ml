(* The bench harness's one row schema (BENCH_9.json). Every number a
   run records is a row [{target; name; metric; value; unit}]: the
   target that produced it, what was measured (kernel names carry their
   n and interference model), which quantity, and its unit. The file is
   a JSON array with exactly one row object per line, and the reader
   accepts exactly what the writer emits — any other line fails.

   The compare rule gates rows with unit "ns" only; every other row is
   reported and never gates. *)

type row = { target : string; name : string; metric : string; value : float; unit : string }

(* A gated row fails when it is more than this many percent slower than
   its baseline row: only order-of-magnitude blowups, because CI runners
   differ wildly from the machine that recorded the baseline. *)
let threshold_pct = 300

let gated r = r.unit = "ns"

(* ------------------------------ writer ----------------------------- *)

(* Strings go out verbatim, so the reader never needs escapes. *)
let plain s =
  String.iter
    (fun c ->
      if c = '"' || c = '\\' || Char.code c < 0x20 then
        invalid_arg (Printf.sprintf "Rows: %S needs escaping" s))
    s;
  s

(* The shorter of %.15g and %.17g that reads back as the same float. *)
let number v =
  if not (Float.is_finite v) then invalid_arg "Rows: non-finite value";
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let to_line r =
  Printf.sprintf
    "{\"target\": \"%s\", \"name\": \"%s\", \"metric\": \"%s\", \"value\": %s, \"unit\": \"%s\"}"
    (plain r.target) (plain r.name) (plain r.metric) (number r.value) (plain r.unit)

let to_string = function
  | [] -> "[\n]\n"
  | rows -> "[\n" ^ String.concat ",\n" (List.map to_line rows) ^ "\n]\n"

let write path rows =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string rows))

(* ------------------------------ reader ----------------------------- *)

(* Scanf is lenient about blanks and number spelling, so [parse] only
   accepts a row when writing it back reproduces its line byte for byte. *)
let of_line line =
  match
    Scanf.sscanf line
      "{\"target\": \"%[^\"]\", \"name\": \"%[^\"]\", \"metric\": \"%[^\"]\", \"value\": \
       %f, \"unit\": \"%[^\"]\"}%_[,]%!"
      (fun target name metric value unit -> { target; name; metric; value; unit })
  with
  | r -> if Float.is_finite r.value then Some r else None
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

let parse s =
  let lines = Array.of_list (String.split_on_char '\n' s) in
  let n = Array.length lines in
  let bad i = failwith (Printf.sprintf "line %d: cannot read %S" (i + 1) lines.(min i (n - 1))) in
  if n < 3 || lines.(0) <> "[" then bad 0;
  if lines.(n - 2) <> "]" || lines.(n - 1) <> "" then bad (n - 2);
  List.init (n - 3) (fun k ->
      let i = k + 1 in
      match of_line lines.(i) with
      | Some r when to_line r ^ (if i < n - 3 then "," else "") = lines.(i) -> r
      | _ -> bad i)

let read path =
  try parse (In_channel.with_open_bin path In_channel.input_all)
  with Failure msg -> failwith (Printf.sprintf "%s: %s" path msg)

(* ----------------------------- compare ----------------------------- *)

type verdict =
  | Within  (** gated, no slower than the threshold allows *)
  | Regressed  (** gated, more than [threshold_pct] slower *)
  | Missing  (** a gated baseline row of a target that ran, absent now *)
  | Fresh  (** no baseline row *)
  | Info  (** not gated; reported only *)

type check = { row : row; old_value : float option; verdict : verdict }

let key r = (r.target, r.name, r.metric)

(* [compare ~ran ~baseline rows] checks every row of this run against
   its baseline row, then adds a [Missing] check for every gated
   baseline row whose target is in [ran] but that this run did not
   produce. Baseline rows of targets that did not run are skipped. *)
let compare ~ran ~baseline rows =
  let old = Hashtbl.create 256 and now = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace old (key r) r.value) baseline;
  List.iter (fun r -> Hashtbl.replace now (key r) ()) rows;
  let limit = 1. +. (float_of_int threshold_pct /. 100.) in
  let present r =
    let old_value = Hashtbl.find_opt old (key r) in
    let verdict =
      match old_value with
      | None -> Fresh
      | Some _ when not (gated r) -> Info
      | Some o -> if r.value > o *. limit then Regressed else Within
    in
    { row = r; old_value; verdict }
  in
  let missing b =
    if gated b && List.mem b.target ran && not (Hashtbl.mem now (key b)) then
      Some { row = b; old_value = Some b.value; verdict = Missing }
    else None
  in
  List.map present rows @ List.filter_map missing baseline

let failed checks = List.exists (fun c -> c.verdict = Regressed || c.verdict = Missing) checks

let report checks =
  Printf.printf "  %-12s %-46s %-14s %14s %14s %8s\n" "target" "name" "metric" "old" "new"
    "delta";
  List.iter
    (fun { row = r; old_value; verdict } ->
      let num v = Printf.sprintf "%14.6g" v in
      let old_s = Option.fold ~none:(Printf.sprintf "%14s" "-") ~some:num old_value in
      let new_s = if verdict = Missing then Printf.sprintf "%14s" "-" else num r.value in
      let delta =
        match old_value with
        | Some o when o <> 0. && verdict <> Missing ->
            Printf.sprintf "%+7.1f%%" ((r.value -. o) /. o *. 100.)
        | _ -> Printf.sprintf "%8s" ""
      in
      let flag =
        match verdict with
        | Regressed -> "  REGRESSED"
        | Missing -> "  MISSING"
        | Fresh -> if gated r then "  (new kernel)" else "  (new row)"
        | Within | Info -> ""
      in
      Printf.printf "  %-12s %-46s %-14s %s %s %s %s%s\n" r.target r.name r.metric old_s new_s
        delta r.unit flag)
    checks;
  let n_gated =
    List.length (List.filter (fun c -> c.verdict = Within || c.verdict = Regressed) checks)
  in
  if failed checks then
    Printf.printf "FAIL: a gated ns row regressed more than %d%% or went missing\n%!"
      threshold_pct
  else
    Printf.printf "OK: %d gated ns rows, none regressed more than %d%%\n%!" n_gated
      threshold_pct
