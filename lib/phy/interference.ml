module Bitset = Mlbs_util.Bitset
module Graph = Mlbs_graph.Graph
module Network = Mlbs_wsn.Network
module Metrics = Mlbs_obs.Metrics

type sinr_params = Sinr.params = {
  alpha : float;
  beta : float;
  noise : float;
  power : float;
}

type t = Udg | Sinr of sinr_params | Multichannel of int

let default_sinr = Sinr.default

let equal a b =
  match (a, b) with
  | Udg, Udg -> true
  | Sinr p, Sinr q -> p = q
  | Multichannel j, Multichannel k -> j = k
  | _ -> false

let channels = function Multichannel k -> k | Udg | Sinr _ -> 1

(* Under SINR, conflict structure — and with it every search memo
   value — is a function of node positions, not just the graph. Warm
   starts indexed graph-wise ([Reschedule]'s snapshot seeding) are
   only sound for graph-determined models. *)
let geometry_dependent = function Sinr _ -> true | Udg | Multichannel _ -> false

let validate = function
  | Udg -> Ok ()
  | Multichannel k ->
      if k >= 1 && k <= 255 then Ok ()
      else Error "multichannel: channel count must be in 1..255"
  | Sinr p -> Result.map_error (fun e -> "sinr: " ^ e) (Sinr.check p)

(* The model id — also the cache-key component, so it must be a stable
   function of the spec. %.17g round-trips every float exactly while
   printing common values (2, 0.2, ...) compactly via the shortest
   representation check below. *)
let float_id f =
  let s = Printf.sprintf "%g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string = function
  | Udg -> "udg"
  | Multichannel k -> Printf.sprintf "mc:%d" k
  | Sinr p ->
      Printf.sprintf "sinr:%s,%s,%s,%s" (float_id p.alpha) (float_id p.beta)
        (float_id p.noise) (float_id p.power)

let parse s =
  let checked t = Result.map (fun () -> t) (validate t) in
  match String.index_opt s ':' with
  | None -> (
      match s with
      | "udg" -> Ok Udg
      | "sinr" -> checked (Sinr default_sinr)
      | _ -> Error (Printf.sprintf "unknown interference model %S (expected udg|sinr[:A,B,N,P]|mc:K)" s))
  | Some i -> (
      let head = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match head with
      | "mc" -> (
          match int_of_string_opt rest with
          | Some k -> checked (Multichannel k)
          | None -> Error (Printf.sprintf "mc: bad channel count %S" rest))
      | "sinr" -> (
          match List.map float_of_string_opt (String.split_on_char ',' rest) with
          | [ Some alpha; Some beta; Some noise; Some power ] ->
              checked (Sinr { alpha; beta; noise; power })
          | _ ->
              Error
                (Printf.sprintf "sinr: expected four floats alpha,beta,noise,power, got %S" rest))
      | _ -> Error (Printf.sprintf "unknown interference model %S (expected udg|sinr[:A,B,N,P]|mc:K)" s))

(* ------------------------- bound instances ------------------------- *)

type instance =
  | I_udg of Graph.t
  | I_sinr of Sinr.t
  | I_mc of { graph : Graph.t; k : int }

let bind t net =
  match t with
  | Udg -> I_udg (Network.graph net)
  | Sinr p -> I_sinr (Sinr.make net p)
  | Multichannel k ->
      if k < 1 || k > 255 then invalid_arg "Interference.bind: channel count must be in 1..255";
      I_mc { graph = Network.graph net; k }

let spec = function
  | I_udg _ -> Udg
  | I_sinr s -> Sinr (Sinr.params s)
  | I_mc { k; _ } -> Multichannel k

let c_conflict_checks = Metrics.counter "phy/conflict_checks"

(* Pairwise slot-compatibility. Under multi-channel this is the
   *intra-channel* predicate (cross-channel pairs never conflict; the
   channel structure lives in the class merge and the first-fit
   grouping, not here). *)
let conflicts inst ~uninformed u v =
  Metrics.incr c_conflict_checks;
  match inst with
  | I_udg g | I_mc { graph = g; _ } -> Udg.conflicts g ~uninformed u v
  | I_sinr s -> Sinr.conflicts s ~uninformed u v

(* ------------------------- class builder --------------------------- *)

(* One greedy-class builder per instance: [start_class] opens a class
   against the slot's uninformed set, [admits] asks whether a candidate
   keeps it feasible, [accept] commits one, [class_coverage] is the
   informed-set delta the class produces. The UDG builder reads only
   neighbour rows (a bound graph's own, or a node's local view), and
   its blocked set doubles as coverage. *)
type classifier =
  | C_udg of { rows : Bitset.t array; blocked : Bitset.t; mutable ubar : Bitset.t }
  | C_sinr of Sinr.zone

let row_classifier rows =
  let blocked = Bitset.create (Array.length rows) in
  C_udg { rows; blocked; ubar = blocked }

let classifier = function
  | I_udg g | I_mc { graph = g; _ } -> row_classifier (Graph.neighbor_sets g)
  | I_sinr s -> C_sinr (Sinr.zone s)

(* Open a class whose SINR sums are tracked on [reach] (ignored under
   UDG, whose blocked set needs no per-receiver state). *)
let open_class c ~uninformed ~reach =
  match c with
  | C_udg u ->
      Bitset.clear u.blocked;
      u.ubar <- uninformed
  | C_sinr z -> Sinr.zone_start z ~uninformed ~reach

(* A class whose members are not known up front tracks all of W̄. *)
let start_class c ~uninformed = open_class c ~uninformed ~reach:uninformed

(* The receivers a class drawn from [items] can affect: under SINR
   W̄ ∩ ⋃ N(items), so accepts add power there only. *)
let reach_of c ~uninformed items =
  match c with
  | C_udg _ -> uninformed
  | C_sinr z -> Sinr.zone_reach z ~uninformed items

let admits c u =
  match c with
  | C_udg c -> Udg.admits ~blocked:c.blocked c.rows.(u)
  | C_sinr z -> Sinr.zone_admits z u

let accept c u =
  match c with
  | C_udg c -> Udg.accept ~blocked:c.blocked ~uninformed:c.ubar c.rows.(u)
  | C_sinr z -> Sinr.zone_accept z u

let class_coverage = function
  | C_udg c -> c.blocked
  | C_sinr z -> Sinr.zone_coverage z

(* ------------------------ Algorithm 1 ------------------------------ *)

(* One pass of the extended greedy colour scheme: open a class, then
   admit each item in visiting order while the class stays feasible.
   Under UDG admission against the running blocked set is exactly "no
   common uninformed neighbour with any member", so this is the
   pairwise greedy colouring with one intersection test per item. *)
let fill c ~uninformed ~reach items =
  open_class c ~uninformed ~reach;
  let cl, rest =
    List.fold_left
      (fun (cl, rest) u ->
        if admits c u then begin
          accept c u;
          (u :: cl, rest)
        end
        else (cl, u :: rest))
      ([], []) items
  in
  (List.rev cl, List.rev rest)

let pass c ~uninformed items = fill c ~uninformed ~reach:(reach_of c ~uninformed items) items

(* Repeated passes over the rejects: every item of class i > 1 was
   refused by each earlier class. The rejects are a subset of [items],
   so one reach serves every pass. [row] reads each class before the
   next pass reuses the classifier's scratch. *)
let build c ~uninformed items ~row =
  let reach = reach_of c ~uninformed items in
  let rec go items acc =
    match items with
    | [] -> List.rev acc
    | _ ->
        let cl, rest = fill c ~uninformed ~reach items in
        go rest (row cl :: acc)
  in
  go items []

let classes c ~uninformed items = build c ~uninformed items ~row:Fun.id

let classes_cov c ~uninformed items =
  build c ~uninformed items ~row:(fun cl -> (cl, Bitset.copy (class_coverage c)))

(* Eq. (2)'s visiting order. Total — ids are distinct — so the input
   order of [counts] never shows. *)
let visit_order counts =
  List.stable_sort
    (fun ((u : int), (cu : int)) (v, cv) -> if cu <> cv then compare cv cu else compare u v)
    counts
  |> List.map fst

(* Runs of [k] classes merge into one (slot, channel) super-class.
   Concatenated-class sender order is load-bearing: first-fit grouping
   over it ({!Multichannel.groups}) reconstructs exactly these classes
   from the schedule bytes, so channels never need storing. *)
let rec runs k = function
  | [] -> []
  | rows ->
      let rec take i acc = function
        | x :: tl when i > 0 -> take (i - 1) (x :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let run, tl = take k [] rows in
      run :: runs k tl

let merge_classes k classes = if k <= 1 then classes else List.map List.concat (runs k classes)

let merge_channels k rows =
  if k <= 1 then rows
  else
    List.map
      (fun run ->
        let cov = snd (List.hd run) in
        List.iter (fun (_, c) -> Bitset.union_into ~into:cov c) (List.tl run);
        (List.concat_map fst run, cov))
      (runs k rows)

(* --------------------------- reception ----------------------------- *)

type outcome = Silent | Delivered of int | Collision of int list

(* Per-slot replay context: the claimed uninformed set and the full
   scheduled sender list (multi-channel receivers tune on the schedule,
   not on which transmissions survived faults). *)
type slot_ctx =
  | S_udg of Graph.t
  | S_sinr of Sinr.t
  | S_mc of { graph : Graph.t; groups : int list list; overflow : bool }

let slot_ctx inst ~uninformed ~scheduled =
  match inst with
  | I_udg g -> S_udg g
  | I_sinr s -> S_sinr s
  | I_mc { graph; k } ->
      let groups, overflow = Multichannel.groups ~k graph ~uninformed scheduled in
      S_mc { graph; groups; overflow }

let overflow = function S_udg _ | S_sinr _ -> false | S_mc { overflow; _ } -> overflow

let outcome_of_audible = function
  | [] -> Silent
  | [ u ] -> Delivered u
  | several -> Collision several

(* [reception ctx ~effective ~rx] is what [rx] hears given the senders
   whose transmissions actually happened. *)
let reception ctx ~effective ~rx =
  match ctx with
  | S_udg g ->
      outcome_of_audible (List.filter (fun u -> Graph.mem_edge g u rx) effective)
  | S_sinr s -> (
      match Sinr.reception s ~senders:effective ~rx with
      | _, Some u -> Delivered u
      | [], None -> Silent
      | audible, None -> Collision audible)
  | S_mc { graph; groups; _ } ->
      outcome_of_audible
        (Multichannel.reception graph ~groups
           ~effective:(fun u -> List.mem u effective)
           ~rx)
