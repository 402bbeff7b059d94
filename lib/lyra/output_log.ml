(* Three parallel arrays, grown together by doubling. The payload array
   has no filler value before the first entry, so it is built from that
   entry; the int arrays follow its capacity. *)
type 'a t = {
  mutable payloads : 'a array;
  mutable seqs : int array;
  mutable ats : int array;
  mutable len : int;
}

let create () = { payloads = [||]; seqs = [||]; ats = [||]; len = 0 }

let length t = t.len

let grow t x =
  let cap = max 8 (2 * t.len) in
  let payloads = Array.make cap x in
  Array.blit t.payloads 0 payloads 0 t.len;
  let seqs = Array.make cap 0 and ats = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.ats 0 ats 0 t.len;
  t.payloads <- payloads;
  t.seqs <- seqs;
  t.ats <- ats

let append t x ~seq ~at =
  if Int.equal t.len (Array.length t.payloads) then grow t x;
  t.payloads.(t.len) <- x;
  t.seqs.(t.len) <- seq;
  t.ats.(t.len) <- at;
  t.len <- t.len + 1

(* Built from the end, so the list comes out oldest first. *)
let slice t ~from ~len f =
  if from < 0 || len < 0 then invalid_arg "Output_log.slice";
  let upto = if from >= t.len then from else from + min len (t.len - from) in
  let acc = ref [] in
  for i = upto - 1 downto from do
    acc := f t.payloads.(i) ~seq:t.seqs.(i) ~at:t.ats.(i) :: !acc
  done;
  !acc

let to_list t f = slice t ~from:0 ~len:t.len f
