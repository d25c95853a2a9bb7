module Bitset = Mlbs_util.Bitset

type class_eval = { members : int list; m_value : int }

type row = {
  slot : int;
  w_before : int list;
  classes : class_eval list;
  chosen : int;
  advance : int list;
}

type t = { rows : row list; schedule : Schedule.t }

(* Trace walks an Istate of its own: [Mcounter.evaluate] resets the
   search's domain-local one at every call. *)
let run ?(budget = Mcounter.default_budget) model space ~source ~start =
  let ist = Istate.create (Model.n_nodes model) in
  Istate.reset ist model ~w:(Model.initial_w model ~source);
  let evaluate senders ~slot =
    Istate.apply ist ~senders;
    let m = (Mcounter.evaluate model space ~budget ~w:(Istate.w ist) ~slot).Mcounter.finish in
    Istate.undo ist;
    m
  in
  let rec loop slot rows steps =
    if Istate.complete ist then (List.rev rows, List.rev steps)
    else
      match Istate.next_active_slot ist ~after:(slot - 1) with
      | None -> failwith "Trace.run: empty frontier before completion"
      | Some t -> (
          match Choices.enumerate ist space ~slot:t with
          | [] -> failwith "Trace.run: active slot without candidates"
          | choice_list ->
              let evals =
                List.map (fun c -> { members = c; m_value = evaluate c ~slot:(t + 1) }) choice_list
              in
              let chosen, _ =
                List.fold_left
                  (fun (best_i, best_v) (i, e) ->
                    if e.m_value < best_v then (i, e.m_value) else (best_i, best_v))
                  (0, (List.hd evals).m_value)
                  (List.mapi (fun i e -> (i, e)) evals)
              in
              let senders = (List.nth evals chosen).members in
              let w_before = Bitset.elements (Istate.w ist) in
              Istate.apply ist ~senders;
              let advance = List.sort compare (Istate.last_added ist) in
              let row = { slot = t; w_before; classes = evals; chosen; advance } in
              let step = { Schedule.slot = t; senders; informed = advance } in
              loop (t + 1) (row :: rows) (step :: steps))
  in
  let rows, steps = loop start [] [] in
  { rows; schedule = Schedule.make ~n_nodes:(Model.n_nodes model) ~source ~start steps }

let render ?(node_name = string_of_int) t =
  let buf = Buffer.create 1024 in
  let names xs = String.concat "," (List.map node_name xs) in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "t=%d  W={%s}\n" r.slot (names r.w_before));
      List.iteri
        (fun i e ->
          Buffer.add_string buf
            (Printf.sprintf "    C%d={%s}  M=%d%s\n" (i + 1) (names e.members) e.m_value
               (if i = r.chosen then "  <- selected" else "")))
        r.classes;
      Buffer.add_string buf (Printf.sprintf "    A={%s}\n" (names r.advance)))
    t.rows;
  Buffer.add_string buf
    (Printf.sprintf "P(A)=%d (elapsed %d)\n" (Schedule.finish t.schedule)
       (Schedule.elapsed t.schedule));
  Buffer.contents buf
