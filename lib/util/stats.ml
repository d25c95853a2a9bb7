type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let require_nonempty xs op = if xs = [] then invalid_arg ("Stats." ^ op ^ ": empty sample")

let mean xs =
  require_nonempty xs "mean";
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev xs =
  require_nonempty xs "stddev";
  let m = mean xs in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs
    /. float_of_int (List.length xs)
  in
  sqrt var

let median xs =
  require_nonempty xs "median";
  let sorted = List.sort compare xs in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  if n mod 2 = 1 then arr.(n / 2) else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.

let summarize xs =
  require_nonempty xs "summarize";
  let sorted = List.sort compare xs in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  {
    n;
    mean = mean xs;
    stddev = stddev xs;
    min = arr.(0);
    max = arr.(n - 1);
    median = median xs;
  }

let improvement ~baseline ~ours =
  if baseline <= 0. then invalid_arg "Stats.improvement: non-positive baseline";
  (baseline -. ours) /. baseline
