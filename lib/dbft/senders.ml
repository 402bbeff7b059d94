(* Slot 0 packs n (above [count_bits]) and the count (below); id i is
   bit i mod [bits] of slot 1 + i / [bits]. Keeping n in the block
   lets [add] and [mem] reject an out-of-range id at no extra word. *)
type t = int array

let bits = 62

let count_bits = 31

let count_mask = (1 lsl count_bits) - 1

let create n =
  if n < 0 || n > count_mask then invalid_arg "Senders.create: bad size";
  let t = Array.make (1 + ((n + bits - 1) / bits)) 0 in
  t.(0) <- n lsl count_bits;
  t

let count t = t.(0) land count_mask

let check t i =
  if i < 0 || i >= t.(0) lsr count_bits then invalid_arg "Senders: id out of range"

let has t i = (t.(1 + (i / bits)) lsr (i mod bits)) land 1 = 1

let mem t i =
  check t i;
  has t i

let add t i =
  check t i;
  let w = 1 + (i / bits) and bit = 1 lsl (i mod bits) in
  let word = t.(w) in
  if word land bit <> 0 then false
  else begin
    t.(w) <- word lor bit;
    t.(0) <- t.(0) + 1;
    true
  end

let copy = Array.copy

let to_list t =
  let rec go acc i =
    if i < 0 then acc else go (if has t i then i :: acc else acc) (i - 1)
  in
  go [] ((t.(0) lsr count_bits) - 1)
