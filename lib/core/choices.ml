module Bitset = Mlbs_util.Bitset
module Indep = Mlbs_graph.Indep
module Interference = Mlbs_phy.Interference
module Udg = Mlbs_phy.Udg

type t = Greedy | All of { max_sets : int }

let enumerate_all ~conflicts ~max_sets cands =
  match cands with
  | [] -> []
  | _ ->
      let arr = Array.of_list cands in
      Indep.maximal ~n:(Array.length arr)
        ~conflict:(fun i j -> conflicts arr.(i) arr.(j))
        ~limit:max_sets
      |> List.map (List.map (fun i -> arr.(i)))

(* Backend-aware OPT choice sets: the maximal conflict-free candidate
   subsets. SINR prefilters with the pairwise-conservative predicate,
   then trims each maximal set through one class-builder pass —
   pairwise compatibility is necessary but not sufficient under summed
   interference, and only zone-built sets are guaranteed to validate.
   Multi-channel extends each maximal set (channel 1) with one pass per
   channel 2..k over the leftover candidates, in concatenated-class
   order so first-fit reconstruction recovers the channel assignment
   from the sender list alone. *)
let enumerate_all_phy inst ~uninformed ~max_sets cands =
  match inst with
  | Interference.I_udg graph ->
      enumerate_all ~conflicts:(Udg.conflicts graph ~uninformed) ~max_sets cands
  | Interference.I_sinr _ ->
      let cls = Interference.classifier inst in
      enumerate_all ~conflicts:(Interference.conflicts inst ~uninformed) ~max_sets cands
      |> List.map (fun set -> fst (Interference.pass cls ~uninformed set))
  | Interference.I_mc { graph; k } ->
      let sets = enumerate_all ~conflicts:(Udg.conflicts graph ~uninformed) ~max_sets cands in
      if k = 1 then sets
      else
        let cls = Interference.classifier inst in
        let taken = Bitset.create (Bitset.cap uninformed) in
        List.map
          (fun s1 ->
            Bitset.clear taken;
            List.iter (Bitset.add taken) s1;
            let rec channels ch senders remaining =
              if ch >= k || remaining = [] then senders
              else
                let cl, rest = Interference.pass cls ~uninformed remaining in
                channels (ch + 1) (senders @ cl) rest
            in
            channels 1 s1 (List.filter (fun u -> not (Bitset.mem taken u)) cands))
          sets

let enumerate model space ~w ~slot =
  match space with
  | Greedy -> Model.greedy_classes model ~w ~slot
  | All { max_sets } ->
      let uninformed = Bitset.complement w in
      enumerate_all_phy (Model.phy_instance model) ~uninformed ~max_sets
        (Model.candidates model ~w ~slot)

(* Same choice sets, computed from the incremental state: the greedy
   classes reuse the maintained uninformed-neighbour counts, and the
   OPT enumeration reuses the maintained complement instead of
   materialising one per call. *)
let enumerate_incremental ist space ~slot =
  match space with
  | Greedy -> Istate.greedy_classes ist ~slot
  | All { max_sets } ->
      enumerate_all_phy
        (Model.phy_instance (Istate.model ist))
        ~uninformed:(Istate.ubar ist) ~max_sets
        (Istate.candidates ist ~slot)
