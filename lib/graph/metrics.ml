(* Bit-parallel all-sources BFS. Sources are processed one machine word
   at a time: bit [i] of a node's masks stands for source [base + i].
   Each level pulls the neighbours' frontier masks into every node,
   keeps the bits the node has not seen, and records the level as the
   eccentricity of every source whose bit still spread. The sign bit is
   left unused so a full word stays a positive [int]. *)
let word = Sys.int_size - 1

let eccentricities g =
  let n = Graph.n_nodes g in
  let adj = Array.init n (Graph.neighbors g) in
  let ecc = Array.make n 0 in
  let seen = Array.make n 0 in
  let frontier = Array.make n 0 in
  let next = Array.make n 0 in
  let base = ref 0 in
  while !base < n do
    let b = !base in
    let k = min word (n - b) in
    let full = lnot (-1 lsl k) in
    Array.fill seen 0 n 0;
    Array.fill frontier 0 n 0;
    for i = 0 to k - 1 do
      seen.(b + i) <- 1 lsl i;
      frontier.(b + i) <- 1 lsl i
    done;
    let level = ref 0 in
    let spread = ref full in
    while !spread <> 0 do
      incr level;
      spread := 0;
      for v = 0 to n - 1 do
        let sv = seen.(v) in
        if sv = full then next.(v) <- 0
        else begin
          let nb = adj.(v) in
          let acc = ref 0 in
          for j = 0 to Array.length nb - 1 do
            acc := !acc lor frontier.(nb.(j))
          done;
          let fresh = !acc land lnot sv in
          next.(v) <- fresh;
          spread := !spread lor fresh
        end
      done;
      for v = 0 to n - 1 do
        frontier.(v) <- next.(v);
        seen.(v) <- seen.(v) lor next.(v)
      done;
      let s = !spread in
      for i = 0 to k - 1 do
        if s land (1 lsl i) <> 0 then ecc.(b + i) <- !level
      done
    done;
    Array.iter
      (fun sv -> if sv <> full then invalid_arg "Metrics.eccentricities: disconnected graph")
      seen;
    base := b + k
  done;
  ecc

let diameter g =
  if Graph.n_nodes g = 0 then 0 else Array.fold_left max 0 (eccentricities g)

let radius g =
  if Graph.n_nodes g = 0 then 0
  else Array.fold_left min max_int (eccentricities g)

let average_degree g =
  let n = Graph.n_nodes g in
  if n = 0 then 0. else 2. *. float_of_int (Graph.n_edges g) /. float_of_int n

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  for v = 0 to Graph.n_nodes g - 1 do
    let d = Graph.degree g v in
    Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d))
  done;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
