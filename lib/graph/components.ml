(* Depth-first over the adjacency arrays with an explicit stack. Labels
   number components in order of their smallest node. *)
let labels g =
  let n = Graph.n_nodes g in
  let label = Array.make n (-1) in
  let stack = Array.make n 0 in
  let next = ref 0 in
  for s = 0 to n - 1 do
    if label.(s) < 0 then begin
      let c = !next in
      incr next;
      label.(s) <- c;
      stack.(0) <- s;
      let top = ref 1 in
      while !top > 0 do
        decr top;
        Array.iter
          (fun v ->
            if label.(v) < 0 then begin
              label.(v) <- c;
              stack.(!top) <- v;
              incr top
            end)
          (Graph.neighbors g stack.(!top))
      done
    end
  done;
  label

let count g =
  let n = Graph.n_nodes g in
  if n = 0 then 0
  else begin
    let l = labels g in
    1 + Array.fold_left max 0 l
  end

let is_connected g = count g <= 1

let largest g =
  let n = Graph.n_nodes g in
  if n = 0 then []
  else begin
    let l = labels g in
    let k = 1 + Array.fold_left max 0 l in
    let sizes = Array.make k 0 in
    Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) l;
    let best = ref 0 in
    for c = 1 to k - 1 do
      if sizes.(c) > sizes.(!best) then best := c
    done;
    let acc = ref [] in
    for v = n - 1 downto 0 do
      if l.(v) = !best then acc := v :: !acc
    done;
    !acc
  end
