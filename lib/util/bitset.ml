(* Flat int-array bit set, 63 bits per word (sign bit left clear). *)

let bits_per_word = 63

type t = { capacity : int; words : int array }

let words_for capacity = (capacity + bits_per_word - 1) / bits_per_word

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { capacity; words = Array.make (max 1 (words_for capacity)) 0 }

let cap s = s.capacity

let copy s = { s with words = Array.copy s.words }

let assign ~into src =
  if into.capacity <> src.capacity then
    invalid_arg
      (Printf.sprintf "Bitset.assign: capacity mismatch (%d vs %d)" into.capacity src.capacity);
  Array.blit src.words 0 into.words 0 (Array.length src.words)

let clear s = Array.fill s.words 0 (Array.length s.words) 0

let check s i op =
  if i < 0 || i >= s.capacity then
    invalid_arg (Printf.sprintf "Bitset.%s: index %d out of [0,%d)" op i s.capacity)

let add s i =
  check s i "add";
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) <- s.words.(w) lor (1 lsl b)

let remove s i =
  check s i "remove";
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) <- s.words.(w) land lnot (1 lsl b)

let mem s i =
  if i < 0 || i >= s.capacity then false
  else
    let w = i / bits_per_word and b = i mod bits_per_word in
    s.words.(w) land (1 lsl b) <> 0

(* Kernighan popcount per word; the word count is small (≤ 5 for n = 300)
   so a table-driven popcount is not worth the cache pressure. *)
let popcount_word x =
  let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
  loop x 0

let cardinal s = Array.fold_left (fun acc w -> acc + popcount_word w) 0 s.words

let is_empty s =
  let rec loop i = i >= Array.length s.words || (s.words.(i) = 0 && loop (i + 1)) in
  loop 0

let same_cap a b op =
  if a.capacity <> b.capacity then
    invalid_arg (Printf.sprintf "Bitset.%s: capacity mismatch (%d vs %d)" op a.capacity b.capacity)

let union_into ~into src =
  same_cap into src "union_into";
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) lor src.words.(i)
  done

let union a b =
  let r = copy a in
  union_into ~into:r b;
  r

let inter a b =
  same_cap a b "inter";
  let r = copy a in
  for i = 0 to Array.length r.words - 1 do
    r.words.(i) <- r.words.(i) land b.words.(i)
  done;
  r

let diff a b =
  same_cap a b "diff";
  let r = copy a in
  for i = 0 to Array.length r.words - 1 do
    r.words.(i) <- r.words.(i) land lnot b.words.(i)
  done;
  r

(* Mask for the last word so complement never sets bits past [capacity). *)
let last_word_mask capacity =
  let rem = capacity mod bits_per_word in
  if rem = 0 then (1 lsl bits_per_word) - 1 else (1 lsl rem) - 1

let full_word = (1 lsl bits_per_word) - 1

(* Word-wise comparison against the all-ones pattern: every word but the
   last must be the full 63-bit mask, the last must match the capacity
   mask. Short-circuits on the first hole instead of popcounting. *)
let is_full s =
  s.capacity = 0
  ||
  let n = Array.length s.words in
  let rec loop i =
    if i = n - 1 then s.words.(i) = last_word_mask s.capacity
    else s.words.(i) = full_word && loop (i + 1)
  in
  loop 0

let inter_into ~into src =
  same_cap into src "inter_into";
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) land src.words.(i)
  done

let union_inter_into ~into a b =
  same_cap into a "union_inter_into";
  same_cap into b "union_inter_into";
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) lor (a.words.(i) land b.words.(i))
  done

let complement_into ~into src =
  same_cap into src "complement_into";
  let n = Array.length into.words in
  for i = 0 to n - 1 do
    into.words.(i) <- lnot src.words.(i) land full_word
  done;
  if src.capacity > 0 then into.words.(n - 1) <- into.words.(n - 1) land last_word_mask src.capacity
  else into.words.(0) <- 0

let complement s =
  let r = copy s in
  complement_into ~into:r s;
  r

let intersects a b =
  same_cap a b "intersects";
  let rec loop i =
    i < Array.length a.words && (a.words.(i) land b.words.(i) <> 0 || loop (i + 1))
  in
  loop 0

(* Three-way emptiness test, word-wise: [a ∩ b ∩ c ≠ ∅] without
   materialising the pairwise intersection — the paper's conflict
   predicate [N(u) ∩ N(v) ∩ W̄ ≠ ∅] on the protocol hot path. *)
let intersects3 a b c =
  same_cap a b "intersects3";
  same_cap a c "intersects3";
  let rec loop i =
    i < Array.length a.words
    && (a.words.(i) land b.words.(i) land c.words.(i) <> 0 || loop (i + 1))
  in
  loop 0

let subset a b =
  same_cap a b "subset";
  let rec loop i =
    i >= Array.length a.words || (a.words.(i) land lnot b.words.(i) = 0 && loop (i + 1))
  in
  loop 0

let equal a b = a.capacity = b.capacity && a.words = b.words

let compare a b =
  let c = compare a.capacity b.capacity in
  if c <> 0 then c else compare a.words b.words

(* Per-word mixer for the content hash. The hash is the XOR of one
   well-mixed value per (word index, word value) pair, so flipping a
   single bit re-derives the hash in O(1): XOR out the old word's mix,
   XOR in the new one ([hash_flip]). The mixer is a splitmix-style
   finalizer truncated to OCaml's 63-bit ints. *)
let mix_word j x =
  let h = x lxor ((j + 1) * 0x9e3779b97f4a7c1) in
  let h = (h lxor (h lsr 30)) * 0x27d4eb2f165667c5 land max_int in
  let h = (h lxor (h lsr 27)) * 0x165667b19e3779f9 land max_int in
  h lxor (h lsr 31)

let hash s =
  let h = ref s.capacity in
  Array.iteri (fun j w -> h := !h lxor mix_word j w) s.words;
  !h

let hash_flip s i h =
  check s i "hash_flip";
  let j = i / bits_per_word and b = i mod bits_per_word in
  let old = s.words.(j) in
  h lxor mix_word j old lxor mix_word j (old lxor (1 lsl b))

(* Hash of [s ∪ cov] derived from [h = hash s] without materialising
   the union: per word, XOR out the old mix and XOR in the mix of the
   or-ed word. O(words of cov), no allocation — this is what lets the
   transposition table probe a child key (W ∪ cov) before committing
   to the apply. *)
let hash_union s cov h =
  same_cap s cov "hash_union";
  let h = ref h in
  for j = 0 to Array.length s.words - 1 do
    let w = s.words.(j) in
    let u = w lor cov.words.(j) in
    if u <> w then h := !h lxor mix_word j w lxor mix_word j u
  done;
  !h

(* [equal_union a s cov] ⇔ [a = s ∪ cov], word-wise, no allocation.
   Companion to [hash_union]: verifies a probe hit against the stored
   set without building the union. *)
let equal_union a s cov =
  a.capacity = s.capacity
  && a.capacity = cov.capacity
  &&
  let rec loop j =
    j >= Array.length a.words
    || a.words.(j) = s.words.(j) lor cov.words.(j)
       && loop (j + 1)
  in
  loop 0

(* Member iteration strips the lowest set bit each round instead of
   scanning all 63 positions, so sparse sets iterate in O(members).
   The isolated bit is indexed by a perfect hash: 2 is a primitive
   root mod 67, so [2^k mod 67] is injective over k in [0, 61]; bit 62
   (the word's sign bit) masks to 0 under [land max_int] and 0 is not
   a power-of-two residue, so it gets the spare slot. *)
let lsb_index =
  let t = Array.make 67 0 in
  let p = ref 1 in
  for k = 0 to 61 do
    t.(!p) <- k;
    p := !p * 2 mod 67
  done;
  t.(0) <- 62;
  t

let iter f s =
  for w = 0 to Array.length s.words - 1 do
    let word = ref s.words.(w) in
    let base = w * bits_per_word in
    while !word <> 0 do
      let lsb = !word land - !word in
      f (base + lsb_index.(lsb land max_int mod 67));
      word := !word land (!word - 1)
    done
  done

(* Like [iter], but stops at the first member [p] rejects. *)
let for_all p s =
  let n_words = Array.length s.words in
  let rec from w word =
    if word <> 0 then
      let lsb = word land -word in
      p ((w * bits_per_word) + lsb_index.(lsb land max_int mod 67))
      && from w (word land (word - 1))
    else w + 1 >= n_words || from (w + 1) s.words.(w + 1)
  in
  n_words = 0 || from 0 s.words.(0)

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list capacity xs =
  let s = create capacity in
  List.iter (add s) xs;
  s

let of_array capacity xs =
  let s = create capacity in
  for k = 0 to Array.length xs - 1 do
    let i = xs.(k) in
    check s i "of_array";
    let w = i / bits_per_word in
    s.words.(w) <- s.words.(w) lor (1 lsl (i mod bits_per_word))
  done;
  s

let full capacity =
  let s = create capacity in
  for i = 0 to capacity - 1 do
    add s i
  done;
  s

let choose s =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) s;
    None
  with Found i -> Some i

let pp ppf s =
  Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Format.pp_print_int) (elements s)
