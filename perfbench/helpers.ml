let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let quartiles xs =
  match sorted xs with
  | [||] -> invalid_arg "Helpers.quartiles: empty sample"
  | [| x |] -> (x, x, x)
  | a ->
      let ld = Array.length a in
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
      in
      (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let spread xs =
  let q1, m, q3 = quartiles xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

let ladder =
  [ ("p50", 50, 100); ("p75", 75, 100); ("p90", 90, 100); ("p95", 95, 100);
    ("p99", 99, 100); ("p99.9", 999, 1000) ]

(* Nearest rank: the k-th smallest sample with k = ceil(num/den * n),
   in integer arithmetic so p99.9 of 1000 samples is rank 999. *)
let rank ~n (num, den) = max 1 (((num * n) + den - 1) / den)
let beyond ~n p = n - rank ~n p

let tail_rank n =
  List.fold_left
    (fun best (label, num, den) ->
      let b = beyond ~n (num, den) in
      if b >= 10 then (label, (num, den), b) else best)
    ("p50", (50, 100), beyond ~n (50, 100))
    ladder

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Helpers.percentile: empty sample";
  a.(min n (rank ~n p) - 1)

type zipf = float array

let zipf ~n ~s =
  if n <= 0 then invalid_arg "Helpers.zipf: n <= 0";
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw cdf u =
  (* smallest rank whose cumulative mass exceeds u *)
  let rec go lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) > u then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length cdf - 1)

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let self_time ~t0 ~t1 children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a t0 and b = Float.min b t1 in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (sum, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (sum +. (b -. a), b) else (sum, reach))
      (0., t0) clipped
  in
  t1 -. t0 -. covered

let coverage ~layers ~end_to_end =
  if end_to_end <= 0. then 0. else List.fold_left ( +. ) 0. layers /. end_to_end
