module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph

type t = {
  source : int;
  start : int;
  parent : int array; (* -1 for the source *)
  slot : int array; (* reception slot; source: start *)
  children : int list array;
}

let of_schedule model schedule =
  let n = Model.n_nodes model in
  let g = Model.graph model in
  let source = Schedule.source schedule in
  let parent = Array.make n (-1) in
  let slot = Array.make n (-1) in
  let informed = Bitset.create n in
  Bitset.add informed source;
  slot.(source) <- Schedule.start schedule;
  List.iter
    (fun step ->
      let senders = step.Schedule.senders in
      for v = 0 to n - 1 do
        if not (Bitset.mem informed v) then begin
          match List.filter (fun u -> Graph.mem_edge g u v) senders with
          | [] -> ()
          | [ u ] ->
              parent.(v) <- u;
              slot.(v) <- step.Schedule.slot
          | _ ->
              invalid_arg
                (Printf.sprintf "Broadcast_tree.of_schedule: collision at node %d" v)
        end
      done;
      (* Mark after the scan so two senders in one slot cannot chain. *)
      for v = 0 to n - 1 do
        if slot.(v) = step.Schedule.slot && v <> source then Bitset.add informed v
      done)
    (Schedule.steps schedule);
  if not (Bitset.is_full informed) then
    invalid_arg "Broadcast_tree.of_schedule: schedule does not inform every node";
  let children = Array.make n [] in
  Array.iteri (fun v p -> if p >= 0 then children.(p) <- v :: children.(p)) parent;
  Array.iteri (fun u l -> children.(u) <- List.sort compare l) children;
  { source; start = Schedule.start schedule; parent; slot; children }

let parent t v = if t.parent.(v) = -1 then None else Some t.parent.(v)

let children t u = t.children.(u)

let depth t v =
  let rec up v acc = if t.parent.(v) = -1 then acc else up t.parent.(v) (acc + 1) in
  up v 0

let height t =
  let h = ref 0 in
  Array.iteri (fun v _ -> h := max !h (depth t v)) t.parent;
  !h

let informed_slot t v = t.slot.(v)

let relays t =
  let acc = ref [] in
  Array.iteri (fun u l -> if l <> [] then acc := u :: !acc) t.children;
  List.sort compare !acc

let directed_edges t =
  let acc = ref [] in
  Array.iteri (fun v p -> if p >= 0 then acc := (p, v) :: !acc) t.parent;
  List.sort compare !acc
