(* Bitset: unit tests against known sets plus qcheck properties against
   a sorted-int-list model. *)

module Bitset = Mlbs_util.Bitset

let capacity = 200

(* Model-based reference: operate on sorted deduplicated lists. *)
let gen_members =
  QCheck2.Gen.(list_size (int_bound 60) (int_bound (capacity - 1)))

let of_members xs = Bitset.of_list capacity xs

let sorted xs = List.sort_uniq compare xs

let test_empty () =
  let s = Bitset.create capacity in
  Alcotest.(check int) "cardinal" 0 (Bitset.cardinal s);
  Alcotest.(check bool) "is_empty" true (Bitset.is_empty s);
  Alcotest.(check bool) "not full" false (Bitset.is_full s);
  Alcotest.(check (list int)) "elements" [] (Bitset.elements s)

let test_add_remove () =
  let s = Bitset.create capacity in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 199;
  Alcotest.(check (list int)) "elements" [ 0; 63; 64; 199 ] (Bitset.elements s);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal s)

let test_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "add oob" (Invalid_argument "Bitset.add: index 10 out of [0,10)")
    (fun () -> Bitset.add s 10);
  Alcotest.(check bool) "mem oob false" false (Bitset.mem s 10);
  Alcotest.(check bool) "mem negative false" false (Bitset.mem s (-1))

let test_full_complement () =
  let s = Bitset.full 65 in
  Alcotest.(check bool) "full" true (Bitset.is_full s);
  let c = Bitset.complement s in
  Alcotest.(check bool) "complement empty" true (Bitset.is_empty c);
  let c2 = Bitset.complement c in
  Alcotest.(check bool) "complement roundtrip" true (Bitset.equal s c2)

let test_capacity_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 11 in
  Alcotest.check_raises "union mismatch"
    (Invalid_argument "Bitset.union_into: capacity mismatch (10 vs 11)") (fun () ->
      ignore (Bitset.union a b))

let test_choose () =
  Alcotest.(check (option int)) "empty" None (Bitset.choose (Bitset.create 5));
  Alcotest.(check (option int)) "smallest" (Some 2)
    (Bitset.choose (Bitset.of_list 5 [ 4; 2; 3 ]))

let test_for_all () =
  let never _ = Alcotest.fail "predicate applied to a non-member" in
  Alcotest.(check bool) "zero capacity" true (Bitset.for_all never (Bitset.create 0));
  Alcotest.(check bool) "empty multi-word" true (Bitset.for_all never (Bitset.create capacity));
  let s = Bitset.of_list capacity [ 0; 62; 63; 125; 126; 199 ] in
  let calls = ref 0 in
  Alcotest.(check bool) "rejects 126" false
    (Bitset.for_all (fun i -> incr calls; i <> 126) s);
  Alcotest.(check int) "stops at 126" 5 !calls;
  Alcotest.(check bool) "accepts all" true (Bitset.for_all (fun i -> i <= 199) s)

let test_zero_capacity () =
  let s = Bitset.create 0 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Alcotest.(check bool) "full (vacuous)" true (Bitset.is_full s);
  Alcotest.(check bool) "complement empty" true (Bitset.is_empty (Bitset.complement s))

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

let pair = QCheck2.Gen.pair gen_members gen_members

let props =
  [
    prop "elements = sorted model" gen_members (fun xs ->
        Bitset.elements (of_members xs) = sorted xs);
    prop "cardinal = |model|" gen_members (fun xs ->
        Bitset.cardinal (of_members xs) = List.length (sorted xs));
    prop "union matches model" pair (fun (a, b) ->
        Bitset.elements (Bitset.union (of_members a) (of_members b)) = sorted (a @ b));
    prop "inter matches model" pair (fun (a, b) ->
        let expect = List.filter (fun x -> List.mem x b) (sorted a) in
        Bitset.elements (Bitset.inter (of_members a) (of_members b)) = expect);
    prop "diff matches model" pair (fun (a, b) ->
        let expect = List.filter (fun x -> not (List.mem x b)) (sorted a) in
        Bitset.elements (Bitset.diff (of_members a) (of_members b)) = expect);
    prop "intersects = inter nonempty" pair (fun (a, b) ->
        Bitset.intersects (of_members a) (of_members b)
        = not (Bitset.is_empty (Bitset.inter (of_members a) (of_members b))));
    prop "subset = diff empty" pair (fun (a, b) ->
        Bitset.subset (of_members a) (of_members b)
        = Bitset.is_empty (Bitset.diff (of_members a) (of_members b)));
    prop "equal sets hash equally" gen_members (fun xs ->
        Bitset.hash (of_members xs) = Bitset.hash (of_members (List.rev xs)));
    prop "compare consistent with equal" pair (fun (a, b) ->
        Bitset.compare (of_members a) (of_members b) = 0
        = Bitset.equal (of_members a) (of_members b));
    prop "complement partitions" gen_members (fun xs ->
        let s = of_members xs in
        let c = Bitset.complement s in
        Bitset.is_empty (Bitset.inter s c)
        && Bitset.cardinal s + Bitset.cardinal c = capacity);
    prop "fold visits ascending" gen_members (fun xs ->
        let visited = List.rev (Bitset.fold (fun i acc -> i :: acc) (of_members xs) []) in
        visited = sorted xs);
    prop "union_into mutates in place" pair (fun (a, b) ->
        let into = of_members a in
        Bitset.union_into ~into (of_members b);
        Bitset.elements into = sorted (a @ b));
    (* In-place / fused kernels agree with their allocating originals. *)
    prop "inter_into = inter" pair (fun (a, b) ->
        let into = of_members a in
        Bitset.inter_into ~into (of_members b);
        Bitset.equal into (Bitset.inter (of_members a) (of_members b)));
    prop "complement_into = complement" gen_members (fun xs ->
        let s = of_members xs in
        let into = of_members [ 0; 63; 64 ] in
        Bitset.complement_into ~into s;
        Bitset.equal into (Bitset.complement s));
    prop "complement_into aliasing ok" gen_members (fun xs ->
        let s = of_members xs in
        let expect = Bitset.complement s in
        Bitset.complement_into ~into:s s;
        Bitset.equal s expect);
    prop "intersects3 = intersects of inter"
      (QCheck2.Gen.triple gen_members gen_members gen_members)
      (fun (a, b, c) ->
        Bitset.intersects3 (of_members a) (of_members b) (of_members c)
        = Bitset.intersects (Bitset.inter (of_members a) (of_members b)) (of_members c));
    prop "is_full = cardinal at capacity" gen_members (fun xs ->
        (* Exercise both the sparse case and the genuinely-full case. *)
        let s = of_members xs in
        let full = Bitset.full capacity in
        List.iter (Bitset.remove full) xs;
        Bitset.union_into ~into:full s;
        Bitset.is_full s = (Bitset.cardinal s = capacity)
        && Bitset.is_full full
        && (xs = [] || not (Bitset.is_full (Bitset.complement (of_members xs)))));
    (* [for_all] agrees with the model and tests members in ascending
       order up to and including the first rejected one, never past it —
       also when that member sits in a later word. *)
    prop "for_all = model, stops at first failure"
      (QCheck2.Gen.pair gen_members (QCheck2.Gen.int_bound (capacity - 1)))
      (fun (xs, cut) ->
        let s = of_members xs in
        let seen = ref [] in
        let all = Bitset.for_all (fun i -> seen := i :: !seen; i < cut) s in
        let xs = sorted xs in
        let expect_seen =
          match List.find_opt (fun i -> i >= cut) xs with
          | None -> xs
          | Some bad -> List.filter (fun i -> i <= bad) xs
        in
        all = List.for_all (fun i -> i < cut) xs && List.rev !seen = expect_seen);
    (* The word view: peeling each word's lowest bit with [bit_index]
       lists the members, and the view follows later [add]s. *)
    prop "words + bit_index list the members" pair (fun (a, b) ->
        let s = of_members a in
        let ws = Bitset.words s in
        List.iter (Bitset.add s) b;
        let members = ref [] in
        Array.iteri
          (fun w word ->
            let word = ref word in
            while !word <> 0 do
              let lsb = !word land - !word in
              members := ((w * Bitset.bits_per_word) + Bitset.bit_index lsb) :: !members;
              word := !word land (!word - 1)
            done)
          ws;
        List.rev !members = sorted (a @ b));
    prop "clear empties in place" gen_members (fun xs ->
        let s = of_members xs in
        Bitset.clear s;
        Bitset.is_empty s && Bitset.cap s = capacity);
  ]

let () =
  Alcotest.run "bitset"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "full/complement" `Quick test_full_complement;
          Alcotest.test_case "capacity mismatch" `Quick test_capacity_mismatch;
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
          Alcotest.test_case "for_all" `Quick test_for_all;
        ] );
      ("properties", props);
    ]
