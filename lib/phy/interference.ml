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
   channel structure lives in the class chunking and the first-fit
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
   informed-set delta the class produces. The UDG blocked set doubles
   as coverage, exactly as in the original inline loops. *)
type classifier =
  | C_udg of { graph : Graph.t; blocked : Bitset.t; mutable ubar : Bitset.t }
  | C_sinr of Sinr.zone

let classifier = function
  | I_udg g | I_mc { graph = g; _ } ->
      let blocked = Bitset.create (Graph.n_nodes g) in
      C_udg { graph = g; blocked; ubar = blocked }
  | I_sinr s -> C_sinr (Sinr.zone s)

let start_class c ~uninformed =
  match c with
  | C_udg u ->
      Bitset.clear u.blocked;
      u.ubar <- uninformed
  | C_sinr z -> Sinr.zone_start z ~uninformed

let admits c u =
  match c with
  | C_udg c -> Udg.admits c.graph ~blocked:c.blocked u
  | C_sinr z -> Sinr.zone_admits z u

let accept c u =
  match c with
  | C_udg c -> Udg.accept c.graph ~blocked:c.blocked ~uninformed:c.ubar u
  | C_sinr z -> Sinr.zone_accept z u

let class_coverage = function
  | C_udg c -> c.blocked
  | C_sinr z -> Sinr.zone_coverage z

(* --------------------------- reception ----------------------------- *)

type outcome = Silent | Delivered of int | Collision of int list

(* Per-slot replay context: the claimed uninformed set and the full
   scheduled sender list (multi-channel receivers tune on the schedule,
   not on which transmissions survived faults). *)
type slot_ctx =
  | S_udg of Graph.t
  | S_sinr of Sinr.t
  | S_mc of { graph : Graph.t; groups : int list list }

let slot_ctx inst ~uninformed ~scheduled =
  match inst with
  | I_udg g ->
      ignore uninformed;
      ignore scheduled;
      S_udg g
  | I_sinr s -> S_sinr s
  | I_mc { graph; _ } ->
      S_mc { graph; groups = Multichannel.groups graph ~uninformed scheduled }

let slot_channels = function
  | S_udg _ | S_sinr _ -> 1
  | S_mc { groups; _ } -> List.length groups

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
  | S_mc { graph; groups } ->
      outcome_of_audible
        (Multichannel.reception graph ~groups
           ~effective:(fun u -> List.mem u effective)
           ~rx)
