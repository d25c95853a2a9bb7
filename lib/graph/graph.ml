module Bitset = Mlbs_util.Bitset

type t = {
  n : int;
  m : int;
  adj : int array array; (* sorted neighbour lists *)
  sets : Bitset.t array; (* same adjacency as bit sets *)
}

(* Every constructor ends here: [adj] holds the rows and is owned by
   the graph from now on. Each row is checked (range, self-loop, strict
   order) and read into its bit set; then symmetry is checked without a
   single lookup: visiting [u] ascending meets every row's smaller
   neighbours in ascending order, so [seen.(v)] counts how much of row
   [v]'s lower part has been matched. O(n + m) in all. *)
let of_checked_rows ctx adj =
  let n = Array.length adj in
  let total = ref 0 in
  let sets =
    Array.mapi
      (fun u row ->
        let prev = ref (-1) in
        for k = 0 to Array.length row - 1 do
          let v = row.(k) in
          if v < 0 || v >= n then
            invalid_arg (Printf.sprintf "Graph.%s: neighbour %d of %d out of range" ctx v u);
          if v = u then invalid_arg (Printf.sprintf "Graph.%s: self-loop at %d" ctx u);
          if v <= !prev then
            invalid_arg (Printf.sprintf "Graph.%s: row %d not strictly ascending" ctx u);
          prev := v
        done;
        total := !total + Array.length row;
        Bitset.of_array n row)
      adj
  in
  let seen = Array.make n 0 in
  let asymmetric u v =
    invalid_arg (Printf.sprintf "Graph.%s: asymmetric edge %d->%d" ctx u v)
  in
  (* The next smaller neighbour row [v] has yet to match, else [v]. *)
  let expected v =
    let rv = adj.(v) in
    if seen.(v) < Array.length rv && rv.(seen.(v)) < v then rv.(seen.(v)) else v
  in
  for u = 0 to n - 1 do
    let row = adj.(u) in
    for k = 0 to Array.length row - 1 do
      let v = row.(k) in
      if v > u then begin
        let w = expected v in
        if w = u then seen.(v) <- seen.(v) + 1
        else if w < u then asymmetric v w (* [w] was visited and does not list [v] *)
        else asymmetric u v
      end
    done
  done;
  for v = 0 to n - 1 do
    let w = expected v in
    if w < v then asymmetric v w
  done;
  { n; m = !total / 2; adj; sets }

let of_rows rows = of_checked_rows "of_rows" rows

(* Sort an int row in place and drop repeats. *)
let sort_uniq_row row =
  Array.sort Int.compare row;
  let len = Array.length row in
  if len = 0 then row
  else begin
    let k = ref 1 in
    for i = 1 to len - 1 do
      if row.(i) <> row.(!k - 1) then begin
        row.(!k) <- row.(i);
        incr k
      end
    done;
    if !k = len then row else Array.sub row 0 !k
  end

let of_edges ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg (Printf.sprintf "Graph.of_edges: edge (%d,%d) outside [0,%d)" u v n);
      if u = v then invalid_arg (Printf.sprintf "Graph.of_edges: self-loop at %d" u);
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let rows = Array.map (fun d -> Array.make d 0) deg in
  List.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) - 1;
      rows.(u).(deg.(u)) <- v;
      deg.(v) <- deg.(v) - 1;
      rows.(v).(deg.(v)) <- u)
    edges;
  of_checked_rows "of_edges" (Array.map sort_uniq_row rows)

let of_adjacency adj_lists =
  of_checked_rows "of_adjacency" (Array.map (fun l -> sort_uniq_row (Array.of_list l)) adj_lists)

let n_nodes g = g.n
let n_edges g = g.m
let degree g u = Array.length g.adj.(u)
let neighbors g u = g.adj.(u)
let neighbor_set g u = g.sets.(u)

let mem_edge g u v = Bitset.mem g.sets.(u) v

let iter_neighbors g u ~f = Array.iter f g.adj.(u)

let fold_neighbors g u ~init ~f = Array.fold_left f init g.adj.(u)

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    let arr = g.adj.(u) in
    for i = Array.length arr - 1 downto 0 do
      if u < arr.(i) then acc := (u, arr.(i)) :: !acc
    done
  done;
  !acc

let max_degree g = Array.fold_left (fun acc arr -> max acc (Array.length arr)) 0 g.adj

let common_neighbor_in g u v ~candidates =
  (* Scan the smaller adjacency list; probe the other's bit set and the
     candidate set. *)
  let a, b = if degree g u <= degree g v then (u, v) else (v, u) in
  let arr = g.adj.(a) in
  let other = g.sets.(b) in
  let rec loop i =
    i < Array.length arr
    && ((Bitset.mem other arr.(i) && Bitset.mem candidates arr.(i)) || loop (i + 1))
  in
  loop 0

(* Canonical digest: fold a splitmix64-style finalizer over the sorted
   CSR rows, so the value depends on the labelled edge set alone and
   never on how the graph was presented to the constructor. *)
let dmix h x =
  let open Int64 in
  let h = add h x in
  let h = mul (logxor h (shift_right_logical h 30)) 0xbf58476d1ce4e5b9L in
  let h = mul (logxor h (shift_right_logical h 27)) 0x94d049bb133111ebL in
  logxor h (shift_right_logical h 31)

let digest g =
  let h = ref (dmix 0x6d6c62732d676468L (Int64.of_int g.n)) in
  for u = 0 to g.n - 1 do
    let arr = g.adj.(u) in
    for i = 0 to Array.length arr - 1 do
      let v = arr.(i) in
      if u < v then h := dmix (dmix !h (Int64.of_int u)) (Int64.of_int v)
    done
  done;
  !h

(* ---------------------------- deltas ------------------------------- *)

(* Topology edits keep the node count fixed: churn in the service is
   edge-level (links appear and vanish, moved nodes swap their whole
   neighbourhood), so repaired schedules stay comparable index-for-index
   with the schedules they patch. *)

let edit g ~add ~remove ~rewire =
  let n = g.n in
  let check ctx u =
    if u < 0 || u >= n then
      invalid_arg (Printf.sprintf "Graph.edit: %s endpoint %d outside [0,%d)" ctx u n)
  in
  let sets = Array.init n (fun u -> Bitset.copy g.sets.(u)) in
  let drop u v =
    Bitset.remove sets.(u) v;
    Bitset.remove sets.(v) u
  in
  let put ctx u v =
    if u = v then invalid_arg (Printf.sprintf "Graph.edit: %s self-loop at %d" ctx u);
    Bitset.add sets.(u) v;
    Bitset.add sets.(v) u
  in
  List.iter
    (fun (u, v) ->
      check "remove" u;
      check "remove" v;
      drop u v)
    remove;
  (* Rewires apply in list order: each replaces the node's whole
     neighbourhood, so later entries win over earlier ones (generators
     emitting one consistent entry per moved node are order-free). *)
  List.iter
    (fun (u, nbrs) ->
      check "rewire" u;
      List.iter (fun v -> drop u v) (Bitset.elements sets.(u));
      List.iter
        (fun v ->
          check "rewire" v;
          put "rewire" u v)
        nbrs)
    rewire;
  List.iter
    (fun (u, v) ->
      check "add" u;
      check "add" v;
      put "add" u v)
    add;
  (* The sets are symmetric by construction: read the rows off them. *)
  let adj =
    Array.map
      (fun s ->
        let row = Array.make (Bitset.cardinal s) 0 in
        let k = ref 0 in
        Bitset.iter
          (fun v ->
            row.(!k) <- v;
            incr k)
          s;
        row)
      sets
  in
  { n; m = Array.fold_left (fun acc row -> acc + Array.length row) 0 adj / 2; adj; sets }

let diff_endpoints a b =
  if a.n <> b.n then invalid_arg "Graph.diff_endpoints: node counts differ";
  let out = ref [] in
  for u = a.n - 1 downto 0 do
    if not (Bitset.equal a.sets.(u) b.sets.(u)) then out := u :: !out
  done;
  !out

let pp ppf g = Format.fprintf ppf "graph(n=%d, m=%d)" g.n g.m
