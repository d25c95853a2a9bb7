module Splitmix64 = Mlbs_prng.Splitmix64
module Wake_schedule = Mlbs_dutycycle.Wake_schedule
module Model = Mlbs_core.Model

type loss =
  | No_loss
  | Bernoulli of float
  | Gilbert_elliott of {
      p_gb : float;
      p_bg : float;
      loss_good : float;
      loss_bad : float;
    }

type crash = { node : int; at : int; recover : int option }

type spec = { loss : loss; crashes : crash list; wake_jitter : int; seed : int }

type ge_state = Good | Bad

type t = {
  spec : spec;
  crash_tbl : (int, (int * int option) list) Hashtbl.t;
  (* Gilbert–Elliott per-directed-link memo: the chain state after the
     transitions of slots 1..slot. Purely an accelerator — the state at
     any slot is a function of (seed, link, slot) alone, so recomputing
     from slot 0 gives the same answer in any query order. *)
  ge_memo : (int, int * ge_state) Hashtbl.t option;
}

(* Stateless hash of the master seed and up to four coordinates to a
   unit float — the plan's only source of randomness. Feeding the
   coordinates through separate SplitMix64 steps (same construction as
   [Wake_schedule]) keeps streams for different links/slots/channels
   statistically independent. *)
let unit_roll seed a b c d =
  let open Int64 in
  let feed z x =
    let g = Splitmix64.create (logxor z (mul (of_int x) 0x9E3779B97F4A7C15L)) in
    Splitmix64.next g
  in
  let z = feed (of_int seed) a in
  let z = feed z b in
  let z = feed z c in
  let z = feed z d in
  Splitmix64.next_float (Splitmix64.create z)

let check_prob what p =
  if not (p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Fault.make: %s = %g outside [0, 1]" what p)

let validate spec =
  (match spec.loss with
  | No_loss -> ()
  | Bernoulli p -> check_prob "loss" p
  | Gilbert_elliott { p_gb; p_bg; loss_good; loss_bad } ->
      check_prob "p_gb" p_gb;
      check_prob "p_bg" p_bg;
      check_prob "loss_good" loss_good;
      check_prob "loss_bad" loss_bad);
  if spec.wake_jitter < 0 then invalid_arg "Fault.make: negative wake_jitter";
  List.iter
    (fun { node; at; recover } ->
      match recover with
      | Some r when r <= at ->
          invalid_arg
            (Printf.sprintf "Fault.make: node %d recovers at %d <= crash slot %d" node r
               at)
      | _ -> ())
    spec.crashes

let make spec =
  validate spec;
  let crash_tbl = Hashtbl.create (2 * List.length spec.crashes) in
  List.iter
    (fun { node; at; recover } ->
      let prev = Option.value (Hashtbl.find_opt crash_tbl node) ~default:[] in
      Hashtbl.replace crash_tbl node ((at, recover) :: prev))
    spec.crashes;
  let ge_memo =
    match spec.loss with
    | Gilbert_elliott _ -> Some (Hashtbl.create 256)
    | _ -> None
  in
  { spec; crash_tbl; ge_memo }

let none = make { loss = No_loss; crashes = []; wake_jitter = 0; seed = 0 }

let spec t = t.spec

let is_noop t =
  (match t.spec.loss with No_loss | Bernoulli 0. -> true | _ -> false)
  && t.spec.crashes = []
  && t.spec.wake_jitter = 0

(* Channel tags < 0 are reserved for the plan's own internal streams so
   user channels (data 0, beacon 1, E-construction 2, ...) never collide
   with them. *)
let tag_ge_transition = -1
let tag_jitter = -2
let tag_crash = -3

let ge_state t ~link ~slot p_gb p_bg =
  match t.ge_memo with
  | None -> Good
  | Some memo ->
      let advance state s =
        let u = unit_roll t.spec.seed tag_ge_transition s (link lsr 24) (link land 0xFFFFFF) in
        match state with
        | Good -> if u < p_gb then Bad else Good
        | Bad -> if u < p_bg then Good else Bad
      in
      let from_slot, from_state =
        match Hashtbl.find_opt memo link with
        | Some (s, st) when s <= slot -> (s, st)
        | _ -> (0, Good)
      in
      let state = ref from_state in
      for s = from_slot + 1 to slot do
        state := advance !state s
      done;
      (match Hashtbl.find_opt memo link with
      | Some (s, _) when s >= slot -> ()
      | _ -> Hashtbl.replace memo link (slot, !state));
      !state

let delivers ?(channel = 0) ~slot ~tx ~rx t =
  if channel < 0 then invalid_arg "Fault.delivers: negative channel";
  match t.spec.loss with
  | No_loss -> true
  | Bernoulli p ->
      p = 0. || unit_roll t.spec.seed channel slot tx rx >= p
  | Gilbert_elliott { p_gb; p_bg; loss_good; loss_bad } ->
      let link = (tx lsl 24) lor (rx land 0xFFFFFF) in
      let p =
        match ge_state t ~link ~slot p_gb p_bg with
        | Good -> loss_good
        | Bad -> loss_bad
      in
      p = 0. || unit_roll t.spec.seed channel slot tx rx >= p

let alive t ~slot u =
  match Hashtbl.find_opt t.crash_tbl u with
  | None -> true
  | Some windows ->
      not
        (List.exists
           (fun (at, recover) ->
             at <= slot && match recover with None -> true | Some r -> slot < r)
           windows)

let jittered t sched =
  let j = t.spec.wake_jitter in
  if j = 0 then sched
  else
    let n = Wake_schedule.n_nodes sched in
    let offsets =
      Array.init n (fun u ->
          let u01 = unit_roll t.spec.seed tag_jitter u 0 0 in
          int_of_float (u01 *. float_of_int ((2 * j) + 1)) - j)
    in
    Wake_schedule.shifted sched ~offsets

let own_clock t model =
  match Model.system model with
  | Model.Sync -> Model.Sync
  | Model.Async sched -> Model.Async (jittered t sched)

let sample_crashes ~n_nodes ~fraction ~window:(lo, hi) ?(avoid = []) ~seed () =
  if not (fraction >= 0. && fraction <= 1.) then
    invalid_arg "Fault.sample_crashes: fraction outside [0, 1]";
  if hi < lo then invalid_arg "Fault.sample_crashes: empty window";
  let crashes = ref [] in
  for u = n_nodes - 1 downto 0 do
    if not (List.mem u avoid) then
      if unit_roll seed tag_crash u 0 0 < fraction then begin
        let at = lo + int_of_float (unit_roll seed tag_crash u 1 0 *. float_of_int (hi - lo + 1)) in
        crashes := { node = u; at = min at hi; recover = None } :: !crashes
      end
  done;
  !crashes
