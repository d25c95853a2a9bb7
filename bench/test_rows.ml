(* Tests of the bench row schema: writer, reader and compare rule. *)
open Bench_rows

let row ?(target = "micro") ?(unit = "ns") name value =
  { Rows.target; name; metric = "ns_per_run"; value; unit }

let verdicts checks = List.map (fun c -> (c.Rows.row.Rows.name, c.Rows.verdict)) checks
let pp_verdict =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
        | Rows.Within -> "Within"
        | Regressed -> "Regressed"
        | Missing -> "Missing"
        | Fresh -> "Fresh"
        | Info -> "Info"))
    ( = )

let test_round_trip () =
  let rows =
    [
      row "mlbs/kernel/conflict-test new (intersects3)" 13.8;
      row ~target:"models" "models/G-OPT cold sinr (n=300)" 2125235992.0;
      row ~target:"churn" "churn/repair (n=80, 10%)" 0.1;
      { Rows.target = "churn"; name = "section"; metric = "seconds"; value = 1e-3; unit = "s" };
      { Rows.target = "improve"; name = "x"; metric = "gopt"; value = -7.; unit = "rounds" };
      row "third" (1. /. 3.);
    ]
  in
  Alcotest.(check bool) "parse (to_string rows) = rows" true (Rows.parse (Rows.to_string rows) = rows);
  Alcotest.(check bool) "no rows" true (Rows.parse (Rows.to_string []) = []);
  let lines = String.split_on_char '\n' (Rows.to_string rows) in
  Alcotest.(check int) "one row per line" (List.length rows + 3) (List.length lines)

(* [s] with the first [sub] replaced by [by]. *)
let replace s sub by =
  let n = String.length sub in
  let rec find i = if String.sub s i n = sub then i else find (i + 1) in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let rejects what s =
  match Rows.parse s with
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "accepted %s" what

let test_malformed () =
  let good = Rows.to_line (row "k" 1.5) in
  rejects "a bad row" ("[\n" ^ good ^ ",\n{\"target\": \"micro\"}\n]\n");
  rejects "an extra blank" ("[\n" ^ good ^ " \n]\n");
  rejects "a missing comma" ("[\n" ^ good ^ "\n" ^ good ^ "\n]\n");
  rejects "a trailing comma" ("[\n" ^ good ^ ",\n]\n");
  rejects "a non-canonical number" ("[\n" ^ replace good "1.5" "1.50" ^ "\n]\n");
  rejects "an extra field"
    ("[\n" ^ replace good "}" ", \"n\": 1}" ^ "\n]\n");
  rejects "a missing bracket" (good ^ "\n]\n");
  rejects "no final newline" ("[\n" ^ good ^ "\n]");
  rejects "an empty file" "";
  match Rows.parse ("[\n" ^ good ^ ",\nnot a row\n]\n") with
  | exception Failure msg ->
      Alcotest.(check bool) ("names line 3: " ^ msg) true (String.starts_with ~prefix:"line 3:" msg)
  | _ -> Alcotest.fail "accepted a bad line"

let limit = 1. +. (float_of_int Rows.threshold_pct /. 100.)

let test_threshold () =
  let baseline = [ row "a" 100.; row "b" 100. ] in
  let checks =
    Rows.compare ~ran:[ "micro" ] ~baseline
      [ row "a" (Float.succ (100. *. limit)); row "b" (100. *. limit) ]
  in
  Alcotest.(check (list (pair string pp_verdict)))
    "just past fails, just inside passes"
    [ ("a", Rows.Regressed); ("b", Rows.Within) ]
    (verdicts checks);
  Alcotest.(check bool) "run fails" true (Rows.failed checks);
  Alcotest.(check bool) "inside alone passes" false
    (Rows.failed (Rows.compare ~ran:[ "micro" ] ~baseline:[ row "b" 100. ] [ row "b" 400. ]))

let test_ungated () =
  let s v = row ~target:"churn" ~unit:"s" "section" v in
  let checks = Rows.compare ~ran:[ "churn" ] ~baseline:[ s 1. ] [ s 1000. ] in
  Alcotest.(check (list (pair string pp_verdict))) "info" [ ("section", Rows.Info) ] (verdicts checks);
  Alcotest.(check bool) "never gates" false (Rows.failed checks);
  let gone = Rows.compare ~ran:[ "churn" ] ~baseline:[ s 1. ] [] in
  Alcotest.(check bool) "missing non-ns row does not gate" false (Rows.failed gone)

let test_missing () =
  let baseline = [ row ~target:"fleet" "fleet/degraded p50 (4 shards)" 1e5; row "k" 1. ] in
  let checks = Rows.compare ~ran:[ "fleet"; "micro" ] ~baseline [ row "k" 1. ] in
  Alcotest.(check (list (pair string pp_verdict)))
    "absent row of a target that ran"
    [ ("k", Rows.Within); ("fleet/degraded p50 (4 shards)", Rows.Missing) ]
    (verdicts checks);
  Alcotest.(check bool) "fails" true (Rows.failed checks)

let test_not_ran () =
  let baseline = [ row ~target:"fleet" "fleet/warm p50 (1 shard)" 1e5; row "k" 1. ] in
  let checks = Rows.compare ~ran:[ "micro" ] ~baseline [ row "k" 1.; row "fresh" 5. ] in
  Alcotest.(check (list (pair string pp_verdict)))
    "other targets skipped, new rows reported"
    [ ("k", Rows.Within); ("fresh", Rows.Fresh) ]
    (verdicts checks);
  Alcotest.(check bool) "passes" false (Rows.failed checks)

let () =
  Alcotest.run "bench rows"
    [
      ( "rows",
        [
          Alcotest.test_case "writer -> reader round trip" `Quick test_round_trip;
          Alcotest.test_case "malformed lines fail" `Quick test_malformed;
          Alcotest.test_case "ns threshold" `Quick test_threshold;
          Alcotest.test_case "non-ns rows never gate" `Quick test_ungated;
          Alcotest.test_case "missing row of a target that ran" `Quick test_missing;
          Alcotest.test_case "targets that did not run" `Quick test_not_ran;
        ] );
    ]
