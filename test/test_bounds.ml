(* The search machinery must be invisible in the results: the
   admissible bounds never exceed the true optimum, the transposition
   table answers exactly like the naive memo it replaced, and an exact
   search returns the finish and the schedule of a naive memoised
   recursion, with no bounds or table, over the same choices: the color
   sets whose coverage is not a strict subset of a sibling's. *)

module Bitset = Mlbs_util.Bitset
module Model = Mlbs_core.Model
module Walk = Test_support.Model_walk
module Choices = Mlbs_core.Choices
module Istate = Mlbs_core.Istate
module Bounds = Mlbs_core.Bounds
module Ttable = Mlbs_core.Ttable
module Mcounter = Mlbs_core.Mcounter
module Schedule = Mlbs_core.Schedule

let budget = { Mcounter.max_states = 1_000_000; lookahead = 2; beam = 4 }

let prop ?(count = 60) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let gen_walk gen_model =
  QCheck2.Gen.(pair gen_model (list_size (int_bound 12) (int_bound 1000)))

(* ------------------------ bound admissibility ---------------------- *)

(* At a position (W, slot), [Bounds.remaining] promises that any
   completion whose first advance happens at active slot t finishes at
   slot >= t + r - 1. Check it against the exact optimum at the root
   and at every position of a random greedy-choice walk. *)
let check_admissible model st ~slot =
  let w = Istate.w st in
  let r, _ = Bounds.remaining st in
  if Istate.complete st then Alcotest.(check int) "complete => 0" 0 r
  else begin
    let e = Mcounter.evaluate model Choices.Greedy ~budget ~w ~slot in
    if e.Mcounter.exact then
      match Istate.next_active_slot st ~after:(slot - 1) with
      | None -> Alcotest.fail "incomplete position with no active slot"
      | Some t ->
          if e.Mcounter.finish < t + r - 1 then
            Alcotest.failf "bound %d refutes optimum %d (first advance at %d)" r
              e.Mcounter.finish t
  end

let bound_admissible ((model, _), moves) =
  let n = Model.n_nodes model in
  let st = Istate.create n in
  Istate.reset st model ~w:(Model.initial_w model ~source:0);
  let slot = ref 1 in
  check_admissible model st ~slot:!slot;
  List.iter
    (fun r ->
      if not (Istate.complete st) then
        match Istate.next_active_slot st ~after:(!slot - 1) with
        | None -> ()
        | Some t ->
            let classes = Istate.greedy_classes st ~slot:t in
            if classes <> [] then begin
              Istate.apply st ~senders:(List.nth classes (r mod List.length classes));
              slot := t + 1;
              check_admissible model st ~slot:!slot
            end)
    moves;
  true

(* The word-loop packing bound equals the neighbour-scan oracle over
   the BFS layers of W, at every position of a random walk of greedy
   advances and undos. *)
let bound_matches_oracle ((model, _), moves) =
  let st = Istate.create (Model.n_nodes model) in
  Istate.reset st model ~w:(Model.initial_w model ~source:0);
  let stack = ref [ 1 ] in
  let agrees () =
    let r, k = Bounds.remaining st and r', k' = Walk.remaining model ~w:(Istate.w st) in
    if r <> r' || k <> k' then
      Alcotest.failf "remaining %d (%s), oracle %d (%s)" r
        (if k = Bounds.Packing then "packing" else "ecc")
        r'
        (if k' = Bounds.Packing then "packing" else "ecc")
  in
  agrees ();
  List.iter
    (fun r ->
      if r mod 4 = 0 && Istate.depth st > 0 then begin
        Istate.undo st;
        stack := List.tl !stack;
        agrees ()
      end
      else if not (Istate.complete st) then
        match Istate.next_active_slot st ~after:(List.hd !stack - 1) with
        | None -> ()
        | Some t ->
            let classes = Istate.greedy_classes st ~slot:t in
            if classes <> [] then begin
              Istate.apply st ~senders:(List.nth classes (r mod List.length classes));
              stack := (t + 1) :: !stack;
              agrees ()
            end)
    moves;
  true

(* ----------------- transposition table equivalence ----------------- *)

(* Replay a random op sequence against a [Hashtbl] oracle. Sets live in
   capacity 30, so an int bitmask is a faithful content key. *)
let mask set = Bitset.fold (fun i acc -> acc lor (1 lsl i)) set 0

let gen_tt_ops =
  QCheck2.Gen.(
    let op =
      let* members = list_size (int_bound 8) (int_bound 29) in
      let* slot = int_bound 3 in
      let* v = int_bound 1000 in
      let* is_add = bool in
      return (members, slot, v, is_add)
    in
    list_size (int_bound 120) op)

let tt_matches_naive ops =
  let t = Ttable.create () in
  let naive = Hashtbl.create 64 in
  List.iter
    (fun (members, slot, v, is_add) ->
      let set = Bitset.of_list 30 members in
      let h = Bitset.hash set in
      if is_add then begin
        Ttable.add t ~h ~slot ~set v;
        Alcotest.(check (option int)) "find after add" (Some v) (Ttable.find t ~h ~slot ~set);
        Hashtbl.replace naive (mask set, slot) v
      end
      else
        Alcotest.(check (option int))
          "find" (Hashtbl.find_opt naive (mask set, slot)) (Ttable.find t ~h ~slot ~set))
    ops;
  Alcotest.(check int) "length" (Hashtbl.length naive) (Ttable.length t);
  true

let find_union_agrees (base_members, cov_members, slot, v) =
  let base = Bitset.of_list 30 base_members in
  let cov = Bitset.of_list 30 cov_members in
  let u = Bitset.union base cov in
  let t = Ttable.create () in
  let h_union = Bitset.hash_union base cov (Bitset.hash base) in
  Alcotest.(check (option int))
    "miss before insert" None
    (Ttable.find_union t ~h:h_union ~slot ~base ~cov);
  Ttable.add t ~h:(Bitset.hash u) ~slot ~set:u v;
  Alcotest.(check (option int))
    "find_union = find on the materialised union" (Some v)
    (Ttable.find_union t ~h:h_union ~slot ~base ~cov);
  true

(* --------------------------- naive oracle -------------------------- *)

(* The color sets the search chooses from at (W, t), each with its
   successor W + A_C, in enumeration order: the sets of the space less
   every set whose successor is a strict subset of a sibling's
   ([~maximal:false] keeps them all). In the [All] space the drop never
   changes M (monotonicity); among the greedy classes it is part of the
   space G-OPT searches. *)
let oracle_choices ~maximal model space ~w ~slot =
  let succs =
    List.map
      (fun c -> (c, Walk.apply model ~w ~senders:c))
      (Walk.enumerate model space ~w ~slot)
  in
  let strictly_below (_, w1) (_, w2) = Bitset.subset w1 w2 && not (Bitset.equal w1 w2) in
  if not maximal then succs
  else List.filter (fun x -> not (List.exists (strictly_below x) succs)) succs

(* The paper's recursion read literally, on the from-scratch model:
   M(N, t) = t - 1, and otherwise the minimum over the color sets C at
   the next active slot t of M(W + A_C, t + 1). Memoised on (W, t) in a
   [Hashtbl]; test models have at most 18 nodes, so an int bitmask is a
   faithful key. Sync values are those of async with every node awake,
   so one recursion serves both systems. *)
let oracle_finish ?(maximal = true) model space =
  let memo = Hashtbl.create 256 in
  let rec finish w ~slot =
    if Model.complete model ~w then slot - 1
    else
      match Walk.next_active_slot model ~w ~after:(slot - 1) with
      | None -> failwith "oracle: empty frontier before completion"
      | Some t -> (
          let key = (mask w, t) in
          match Hashtbl.find_opt memo key with
          | Some v -> v
          | None ->
              let v =
                List.fold_left
                  (fun acc (_, w') -> min acc (finish w' ~slot:(t + 1)))
                  max_int
                  (oracle_choices ~maximal model space ~w ~slot:t)
              in
              Hashtbl.add memo key v;
              v)
  in
  finish

(* The plan the search promises: at every active slot, rank the color
   sets by the hop lower bound of W ∪ cov ascending, then |W ∪ cov|
   descending, then enumeration order, and take the first one whose
   exact finish is smallest. *)
let oracle_plan model space ~source ~start =
  let finish = oracle_finish model space in
  let rec loop w ~slot steps =
    if Model.complete model ~w then List.rev steps
    else
      match Walk.next_active_slot model ~w ~after:(slot - 1) with
      | None -> failwith "oracle: empty frontier before completion"
      | Some t ->
          let ranked =
            List.stable_sort
              (fun (lb1, k1, _, _) (lb2, k2, _, _) -> compare (lb1, -k1) (lb2, -k2))
              (List.map
                 (fun (c, w') ->
                   (Mcounter.hop_lower_bound model ~w:w', Bitset.cardinal w', c, w'))
                 (oracle_choices ~maximal:true model space ~w ~slot:t))
          in
          let _, c, w' =
            List.fold_left
              (fun ((bv, _, _) as acc) (_, _, c, w') ->
                let v = finish w' ~slot:(t + 1) in
                if v < bv then (v, c, w') else acc)
              (max_int, [], w) ranked
          in
          let step =
            { Schedule.slot = t; senders = c; informed = Walk.newly_informed model ~w ~senders:c }
          in
          loop w' ~slot:(t + 1) (step :: steps)
  in
  loop (Model.initial_w model ~source) ~slot:start []

(* Plans and evaluations from every source, so each model yields n
   independent searches. *)
let every_source model f = List.for_all f (List.init (Model.n_nodes model) Fun.id)

(* For an uncapped [All] space the drop must also leave M unchanged.
   Under a binding [max_sets] cap the replay argument fails and OPT
   keeps the drop anyway, so [~capped:true] checks the plan against the
   oracle over the same (dropped) space only. *)
let plan_matches_oracle ?(capped = false) space ((model, _) : Model.t * int) =
  let unfiltered = oracle_finish ~maximal:false model space in
  every_source model (fun source ->
      let w = Model.initial_w model ~source in
      let e = Mcounter.evaluate model space ~budget ~w ~slot:1 in
      let p = Mcounter.plan model space ~budget ~source ~start:1 in
      e.Mcounter.exact
      && Schedule.finish p = e.Mcounter.finish
      && Schedule.steps p = oracle_plan model space ~source ~start:1
      && (match space with
         | Choices.All _ when not capped ->
             e.Mcounter.finish = unfiltered w ~slot:1
         | Choices.All _ | Choices.Greedy -> true))

let evaluation_matches_oracle space ((model, _) : Model.t * int) =
  let oracle = oracle_finish model space in
  every_source model (fun source ->
      let w = Model.initial_w model ~source in
      let e = Mcounter.evaluate model space ~budget ~w ~slot:1 in
      e.Mcounter.exact && e.Mcounter.finish = oracle w ~slot:1)

(* The cutoff contract, at every limit from one below the hop bound to
   one above the optimum: an exact search returns M when M <= limit and
   otherwise a lower bound in (limit, M]. A plan's snapshot holds the
   exact entries only, so every entry must equal the oracle's span. *)
let limits_match_oracle space ((model, _) : Model.t * int) =
  let oracle = oracle_finish model space in
  (* Sync entries key on slot 0 and are slot-invariant: read them at 1. *)
  let key_slot slot = match Model.system model with Model.Sync -> 1 | Model.Async _ -> slot in
  every_source model (fun source ->
      let w = Model.initial_w model ~source in
      let m = oracle w ~slot:1 in
      let lb = Mcounter.hop_lower_bound model ~w in
      let within limit =
        let e = Mcounter.evaluate ~limit model space ~budget ~w ~slot:1 in
        e.Mcounter.exact
        &&
        if m <= limit then e.Mcounter.finish = m
        else limit < e.Mcounter.finish && e.Mcounter.finish <= m
      in
      let _, snap = Mcounter.plan_snapshot model space ~budget ~source ~start:1 in
      List.for_all within (List.init (m - lb + 3) (fun i -> lb - 1 + i))
      && List.for_all
           (fun (set, slot, span) ->
             let t = key_slot slot in
             span = oracle set ~slot:t - t + 1)
           (Mcounter.snapshot_bindings snap))

(* A pinned instance where the greedy classes are not monotone: from
   source 11 the best greedy broadcast takes 4 rounds, but every
   4-round schedule chooses, at some advance, a class that informs a
   strict subset of what a sibling class informs. G-OPT never chooses
   such a class, so it finishes in 5; the oracle without the drop finds
   the 4. *)
let test_greedy_drop_pinned () =
  let model = Model.create (Test_support.sparse_network ~n:17 ~seed:92671) Model.Sync in
  let w = Model.initial_w model ~source:11 in
  Alcotest.(check int) "every class" 4
    (oracle_finish ~maximal:false model Choices.Greedy w ~slot:1);
  Alcotest.(check int) "maximal classes" 5 (oracle_finish model Choices.Greedy w ~slot:1);
  let e = Mcounter.evaluate model Choices.Greedy ~budget ~w ~slot:1 in
  Alcotest.(check int) "evaluate" 5 e.Mcounter.finish;
  let p = Mcounter.plan model Choices.Greedy ~budget ~source:11 ~start:1 in
  Alcotest.(check int) "plan" 5 (Schedule.finish p)

let gen_sync = Test_support.gen_sync_model
let gen_async = Test_support.gen_async_model

let gen_sparse_sync = Test_support.gen_sparse_sync_model
let gen_sparse_async = Test_support.gen_sparse_async_model

let () =
  Alcotest.run "bounds"
    [
      ( "admissibility",
        [
          prop ~count:80 "sync: bound never refutes the optimum"
            (gen_walk gen_sync) bound_admissible;
          prop ~count:50 "async: bound never refutes the optimum"
            (gen_walk gen_async) bound_admissible;
          prop ~count:200 "sync: remaining = scalar oracle" (gen_walk gen_sparse_sync)
            bound_matches_oracle;
          prop ~count:200 "async: remaining = scalar oracle" (gen_walk gen_sparse_async)
            bound_matches_oracle;
        ] );
      ( "ttable",
        [
          prop ~count:200 "random ops match a Hashtbl oracle" gen_tt_ops
            tt_matches_naive;
          prop ~count:200 "find_union probes the union key"
            QCheck2.Gen.(
              quad
                (list_size (int_bound 8) (int_bound 29))
                (list_size (int_bound 8) (int_bound 29))
                (int_bound 3) (int_bound 1000))
            find_union_agrees;
        ] );
      ( "naive-memo-oracle",
        [
          prop ~count:60 "sync greedy plans match" gen_sync
            (plan_matches_oracle Choices.Greedy);
          prop ~count:40 "sync OPT plans match" gen_sync
            (plan_matches_oracle (Choices.All { max_sets = 4096 }));
          prop ~count:40 "async greedy plans match" gen_async
            (plan_matches_oracle Choices.Greedy);
          prop ~count:60 "sync evaluations agree" gen_sync
            (evaluation_matches_oracle Choices.Greedy);
          prop ~count:40 "async evaluations agree" gen_async
            (evaluation_matches_oracle Choices.Greedy);
          prop ~count:200 "sparse sync greedy plans" gen_sparse_sync
            (plan_matches_oracle Choices.Greedy);
          prop ~count:100 "sparse sync OPT plans" gen_sparse_sync (fun m ->
              plan_matches_oracle (Choices.All { max_sets = 4096 }) m
              && plan_matches_oracle ~capped:true (Choices.All { max_sets = 2 }) m
              && plan_matches_oracle ~capped:true (Choices.All { max_sets = 1 }) m);
          prop ~count:200 "sparse async greedy plans" gen_sparse_async
            (plan_matches_oracle Choices.Greedy);
          prop ~count:200 "sparse sync evaluations" gen_sparse_sync
            (evaluation_matches_oracle Choices.Greedy);
          prop ~count:200 "sparse async evaluations" gen_sparse_async
            (evaluation_matches_oracle Choices.Greedy);
          Alcotest.test_case "greedy drop pinned case" `Quick test_greedy_drop_pinned;
          prop ~count:60 "sync greedy limits" gen_sync (limits_match_oracle Choices.Greedy);
          prop ~count:40 "sync OPT limits" gen_sync
            (limits_match_oracle (Choices.All { max_sets = 4096 }));
          prop ~count:40 "async greedy limits" gen_async (limits_match_oracle Choices.Greedy);
          prop ~count:30 "async OPT limits" gen_async
            (limits_match_oracle (Choices.All { max_sets = 4096 }));
          prop ~count:100 "sparse sync limits" gen_sparse_sync
            (limits_match_oracle Choices.Greedy);
          prop ~count:100 "sparse async limits" gen_sparse_async
            (limits_match_oracle Choices.Greedy);
        ] );
    ]
