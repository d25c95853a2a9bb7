module Point = Mlbs_geom.Point

type t = {
  cell : float; (* the largest radius a query may use *)
  side : float; (* actual cell side: [cell], coarsened only for sparse extents *)
  xs : Float.Array.t;
  ys : Float.Array.t;
  min_x : float;
  min_y : float;
  cols : int;
  rows : int;
  start : int array; (* cell c holds items.(start.(c)) .. items.(start.(c + 1) - 1) *)
  items : int array; (* point indices bucketed by cell, ascending within a cell *)
}

let cell_x t x = int_of_float (floor ((x -. t.min_x) /. t.side))
let cell_y t y = int_of_float (floor ((y -. t.min_y) /. t.side))

let create ~cell points =
  if not (cell > 0.) then invalid_arg "Grid.create: cell <= 0";
  let n = Array.length points in
  let xs = Float.Array.init n (fun i -> points.(i).Point.x) in
  let ys = Float.Array.init n (fun i -> points.(i).Point.y) in
  let min_x = Float.Array.fold_left Float.min 0. xs
  and min_y = Float.Array.fold_left Float.min 0. ys in
  let ext_x = Float.Array.fold_left Float.max min_x xs -. min_x
  and ext_y = Float.Array.fold_left Float.max min_y ys -. min_y in
  if not (Float.is_finite ext_x && Float.is_finite ext_y) then
    invalid_arg "Grid.create: non-finite coordinate";
  (* Keep the cell count O(n), whatever radius a request names: points
     spread far wider than [cell] get coarser cells, which still hold
     every pair within [cell] in the 3×3 block around a point. *)
  let max_cells = float_of_int ((4 * n) + 64) in
  let rec fit side =
    let c = 1. +. floor (ext_x /. side) and r = 1. +. floor (ext_y /. side) in
    if c *. r > max_cells then fit (2. *. side) else (side, int_of_float c, int_of_float r)
  in
  let side, cols, rows = fit cell in
  let start = Array.make ((cols * rows) + 1) 0 and items = Array.make n 0 in
  let t = { cell; side; xs; ys; min_x; min_y; cols; rows; start; items } in
  (* Counting sort by cell; filling in index order keeps each cell's
     members ascending. *)
  let home =
    Array.init n (fun i ->
        (cell_y t (Float.Array.get ys i) * cols) + cell_x t (Float.Array.get xs i))
  in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) home;
  for c = 1 to cols * rows do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let next = Array.sub start 0 (cols * rows) in
  Array.iteri
    (fun i c ->
      items.(next.(c)) <- i;
      next.(c) <- next.(c) + 1)
    home;
  t

(* Equal coordinates land in one cell, so only cell mates are
   compared, each against its smaller mates in ascending order: the
   first match is its position's first index. *)
let first_repeat t =
  let best = ref None in
  let better i = match !best with Some (_, r) -> i < r | None -> true in
  for c = 0 to (t.cols * t.rows) - 1 do
    for k = t.start.(c) + 1 to t.start.(c + 1) - 1 do
      let i = t.items.(k) in
      if better i then begin
        let xi = Float.Array.get t.xs i and yi = Float.Array.get t.ys i in
        let rec scan k' =
          if k' < k then begin
            let j = t.items.(k') in
            if Float.Array.get t.xs j = xi && Float.Array.get t.ys j = yi then best := Some (j, i)
            else scan (k' + 1)
          end
        in
        scan t.start.(c)
      end
    done
  done;
  !best

let check_radius t radius fn =
  if radius > t.cell +. 1e-9 then invalid_arg (Printf.sprintf "Grid.%s: radius exceeds cell size" fn)

let neighbor_rows t ~radius =
  check_radius t radius "neighbor_rows";
  let n = Float.Array.length t.xs in
  let r2 = radius *. radius in
  (* Pass 1: each point's larger neighbours from the 3×3 cells around
     it, unsorted, into one flat buffer with offsets [up]. *)
  let up = Array.make (n + 1) 0 in
  let buf = ref (Array.make (max 64 (16 * n)) 0) in
  let len = ref 0 in
  let deg = Array.make n 0 in
  for i = 0 to n - 1 do
    up.(i) <- !len;
    let xi = Float.Array.get t.xs i and yi = Float.Array.get t.ys i in
    let cx = cell_x t xi and cy = cell_y t yi in
    for gy = max 0 (cy - 1) to min (t.rows - 1) (cy + 1) do
      for gx = max 0 (cx - 1) to min (t.cols - 1) (cx + 1) do
        let c = (gy * t.cols) + gx in
        for k = t.start.(c) to t.start.(c + 1) - 1 do
          let j = t.items.(k) in
          if j > i then begin
            let dx = Float.Array.get t.xs j -. xi and dy = Float.Array.get t.ys j -. yi in
            if (dx *. dx) +. (dy *. dy) <= r2 then begin
              if !len = Array.length !buf then begin
                let b = Array.make (2 * !len) 0 in
                Array.blit !buf 0 b 0 !len;
                buf := b
              end;
              !buf.(!len) <- j;
              incr len;
              deg.(i) <- deg.(i) + 1;
              deg.(j) <- deg.(j) + 1
            end
          end
        done
      done
    done
  done;
  up.(n) <- !len;
  let buf = !buf in
  let rows = Array.map (fun d -> Array.make d 0) deg in
  let fill = Array.make n 0 in
  (* Pass 2: visiting [i] in ascending order hands each row its smaller
     neighbours already sorted. *)
  for i = 0 to n - 1 do
    for k = up.(i) to up.(i + 1) - 1 do
      let j = buf.(k) in
      rows.(j).(fill.(j)) <- i;
      fill.(j) <- fill.(j) + 1
    done
  done;
  (* Pass 3: row [j]'s smaller neighbours, visited with [j] ascending,
     hand each of them its larger neighbours sorted too. Row [j] only
     grows when a later row is visited, so its bound is its lower part. *)
  for j = 0 to n - 1 do
    let row = rows.(j) in
    for k = 0 to fill.(j) - 1 do
      let i = row.(k) in
      rows.(i).(fill.(i)) <- j;
      fill.(i) <- fill.(i) + 1
    done
  done;
  rows

let neighbors_within t i ~radius =
  check_radius t radius "neighbors_within";
  Array.to_list (neighbor_rows t ~radius).(i)

let pairs_within t ~radius =
  let rows = neighbor_rows t ~radius in
  let acc = ref [] in
  for i = Array.length rows - 1 downto 0 do
    let row = rows.(i) in
    for k = Array.length row - 1 downto 0 do
      if i < row.(k) then acc := (i, row.(k)) :: !acc
    done
  done;
  !acc
