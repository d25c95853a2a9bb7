module Bitset = Mlbs_util.Bitset
module Metrics = Mlbs_obs.Metrics

(* Transposition-table observability (behind the disabled-registry
   branch, like the search counters). Hits/misses count probes from
   both the node-entry lookup and the pre-apply child probe; collisions
   count probe-chain displacements (occupied slots walked past); grows
   count capacity doublings. *)
let m_hit = Metrics.counter "search/tt_hit"
let m_miss = Metrics.counter "search/tt_miss"
let m_collision = Metrics.counter "search/tt_collision"
let m_grow = Metrics.counter "search/tt_grow"

(* Open-addressing table keyed by (informed-set hash, slot) with linear
   probing. Sync searches use the sentinel slot 0 (their values depend
   on W alone); async searches key on the true (W, slot) pair. The
   stored sets are hash-consed through a side intern table, so the
   async entries for one informed set at many slots share a single
   bitset copy. The table grows and never evicts; slots are never
   cleared, so every lookup terminates on the first empty slot. *)
type t = {
  mutable mask : int;  (* capacity - 1; capacity is a power of two *)
  mutable hkey : int array;  (* informed-set hash *)
  mutable slot : int array;  (* -1 = empty *)
  mutable set : Bitset.t array;
  mutable value : int array;
  mutable size : int;
  dummy : Bitset.t;
  (* intern store: content-addressed informed-set copies *)
  mutable imask : int;
  mutable ihash : int array;
  mutable iset : Bitset.t array;  (* physically [dummy] = empty *)
  mutable isize : int;
}

let create () =
  let cap = 1024 in
  let dummy = Bitset.create 0 in
  {
    mask = cap - 1;
    hkey = Array.make cap 0;
    slot = Array.make cap (-1);
    set = Array.make cap dummy;
    value = Array.make cap 0;
    size = 0;
    dummy;
    imask = cap - 1;
    ihash = Array.make cap 0;
    iset = Array.make cap dummy;
    isize = 0;
  }

let length t = t.size

(* Probe-start index: one splitmix-style finalizer over the combined
   (hash, slot) key, so sync (slot 0) and async entries for the same W
   land on distinct chains. *)
let mixkey h slot =
  let x = h + (slot * 0x9e3779b97f4a7c1) in
  let x = (x lxor (x lsr 30)) * 0x27d4eb2f165667c5 land max_int in
  x lxor (x lsr 27)

let find t ~h ~slot ~set =
  let rec probe i =
    let j = i land t.mask in
    if t.slot.(j) < 0 then begin
      Metrics.incr m_miss;
      None
    end
    else if t.hkey.(j) = h && t.slot.(j) = slot && Bitset.equal t.set.(j) set
    then begin
      Metrics.incr m_hit;
      Some t.value.(j)
    end
    else begin
      Metrics.incr m_collision;
      probe (i + 1)
    end
  in
  probe (mixkey h slot)

(* Probe for the child key [base ∪ cov] without materialising the
   union: the caller derives [h] with [Bitset.hash_union] and equality
   is verified word-wise by [Bitset.equal_union]. *)
let find_union t ~h ~slot ~base ~cov =
  let rec probe i =
    let j = i land t.mask in
    if t.slot.(j) < 0 then begin
      Metrics.incr m_miss;
      None
    end
    else if t.hkey.(j) = h && t.slot.(j) = slot && Bitset.equal_union t.set.(j) base cov
    then begin
      Metrics.incr m_hit;
      Some t.value.(j)
    end
    else begin
      Metrics.incr m_collision;
      probe (i + 1)
    end
  in
  probe (mixkey h slot)

let igrow t =
  let old_set = t.iset and old_hash = t.ihash in
  let cap = (t.imask + 1) * 2 in
  t.imask <- cap - 1;
  t.ihash <- Array.make cap 0;
  t.iset <- Array.make cap t.dummy;
  Array.iteri
    (fun j s ->
      if s != t.dummy then begin
        let h = old_hash.(j) in
        let rec place i =
          let j' = i land t.imask in
          if t.iset.(j') == t.dummy then begin
            t.ihash.(j') <- h;
            t.iset.(j') <- s
          end
          else place (i + 1)
        in
        place (mixkey h 0)
      end)
    old_set

(* Return the canonical stored copy of [set]: an existing interned set
   with equal content, or a fresh copy ([shared] stores the caller's
   set itself — used when seeding from a snapshot, whose sets are
   already immutable). *)
let intern t ~h ~shared set =
  let rec probe i =
    let j = i land t.imask in
    if t.iset.(j) == t.dummy then begin
      let stored = if shared then set else Bitset.copy set in
      t.ihash.(j) <- h;
      t.iset.(j) <- stored;
      t.isize <- t.isize + 1;
      if (t.isize + 1) * 2 > t.imask + 1 then igrow t;
      stored
    end
    else if t.ihash.(j) = h && Bitset.equal t.iset.(j) set then t.iset.(j)
    else probe (i + 1)
  in
  probe (mixkey h 0)

let grow t =
  Metrics.incr m_grow;
  let old_hkey = t.hkey and old_slot = t.slot in
  let old_set = t.set and old_value = t.value in
  let cap = (t.mask + 1) * 2 in
  t.mask <- cap - 1;
  t.hkey <- Array.make cap 0;
  t.slot <- Array.make cap (-1);
  t.set <- Array.make cap t.dummy;
  t.value <- Array.make cap 0;
  Array.iteri
    (fun j s ->
      if s >= 0 then begin
        let rec place i =
          let j' = i land t.mask in
          if t.slot.(j') < 0 then begin
            t.hkey.(j') <- old_hkey.(j);
            t.slot.(j') <- s;
            t.set.(j') <- old_set.(j);
            t.value.(j') <- old_value.(j)
          end
          else place (i + 1)
        in
        place (mixkey old_hkey.(j) s)
      end)
    old_slot

let insert t ~h ~slot ~shared ~set v =
  let rec probe i =
    let j = i land t.mask in
    if t.slot.(j) < 0 then begin
      t.hkey.(j) <- h;
      t.slot.(j) <- slot;
      t.set.(j) <- intern t ~h ~shared set;
      t.value.(j) <- v;
      t.size <- t.size + 1;
      if (t.size + 1) * 2 > t.mask + 1 then grow t
    end
    else if t.hkey.(j) = h && t.slot.(j) = slot && Bitset.equal t.set.(j) set
    then t.value.(j) <- v
    else probe (i + 1)
  in
  probe (mixkey h slot)

let add t ~h ~slot ~set v = insert t ~h ~slot ~shared:false ~set v
let add_shared t ~h ~slot ~set v = insert t ~h ~slot ~shared:true ~set v

let iter f t =
  Array.iteri
    (fun j s -> if s >= 0 then f ~h:t.hkey.(j) ~slot:s ~set:t.set.(j) ~value:t.value.(j))
    t.slot
