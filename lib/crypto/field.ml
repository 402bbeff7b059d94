type t = int

let p = 0x1FFF_FFFF_FFFF_FFFF (* 2^61 - 1 *)

let order = p

let zero = 0

let one = 1

let g = 7

(* Reduce x < 2^62 modulo the Mersenne prime using 2^61 ≡ 1 (mod p). *)
let reduce62 x =
  let r = (x land p) + (x lsr 61) in
  if r >= p then r - p else r

let of_int x =
  let r = x mod p in
  if r < 0 then r + p else r

let to_int x = x

let equal = Int.equal

let compare = Int.compare

let add a b =
  let s = a + b in
  if s >= p then s - p else s

let sub a b = if a >= b then a - b else a - b + p

let neg a = if a = 0 then 0 else p - a

(* Schoolbook multiplication on 31-bit limbs. With a = a1·2^31 + a0 and
   b = b1·2^31 + b0, every partial product fits in 62 bits, and the limb
   weights reduce via 2^62 ≡ 2 and 2^61 ≡ 1 (mod p). *)
let mul a b =
  let a1 = a lsr 31 and a0 = a land 0x7FFF_FFFF in
  let b1 = b lsr 31 and b0 = b land 0x7FFF_FFFF in
  let hh = reduce62 (a1 * b1) in
  let hh = reduce62 (hh * 2) in
  let mid = reduce62 ((a1 * b0) + (a0 * b1)) in
  let mid = reduce62 ((mid lsr 30) + ((mid land 0x3FFF_FFFF) lsl 31)) in
  let ll = reduce62 (a0 * b0) in
  add (add hh mid) ll

let pow b e =
  if e < 0 then invalid_arg "Field.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
  in
  go one b e

(* Fixed-base table with 4-bit windows: entry 16·i + d is b^(d·16^i),
   so one row per nibble of a 64-bit exponent covers every non-negative
   int. A power is then one multiply per non-zero nibble (≤ 16) instead
   of a square and a multiply per bit. *)
type table = t array

let table b =
  let tbl = Array.make 256 one in
  let base = ref b in
  for i = 0 to 15 do
    let row = 16 * i in
    for d = 1 to 15 do
      tbl.(row + d) <- mul tbl.(row + d - 1) !base
    done;
    base := mul tbl.(row + 15) !base
  done;
  tbl

let pow_table tbl e =
  if e < 0 then invalid_arg "Field.pow_table: negative exponent";
  let rec go acc row e =
    if e = 0 then acc
    else
      let d = e land 15 in
      let acc = if d = 0 then acc else mul acc tbl.(row + d) in
      go acc (row + 16) (e lsr 4)
  in
  go one 0 e

let g_table = table g

let inv x =
  if x = 0 then raise Division_by_zero;
  pow x (p - 2)

let div a b = mul a (inv b)

let random rng =
  let rec draw () =
    let v = Rng.int64_nonneg rng land ((1 lsl 61) - 1) in
    if v >= p then draw () else v
  in
  draw ()

let random_nonzero rng =
  let rec draw () =
    let v = random rng in
    if v = 0 then draw () else v
  in
  draw ()

(* Double-and-add product mod an arbitrary modulus m < 2^62; used for
   exponent arithmetic mod (p - 1), which is not Mersenne. *)
let mulmod a b m =
  let a = a mod m and b = b mod m in
  let a = if a < 0 then a + m else a in
  let b = if b < 0 then b + m else b in
  let rec go acc a b =
    if b = 0 then acc
    else
      (* acc, a < m < 2^62, so acc + a and a*2 may exceed max_int:
         compare against the distance to m to stay exact. *)
      let acc =
        if b land 1 = 1 then if acc >= m - a then acc - (m - a) else acc + a
        else acc
      in
      let a2 = if a >= m - a then a - (m - a) else a * 2 in
      go acc a2 (b lsr 1)
  in
  go 0 a b

let to_bytes x =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int x);
  Bytes.unsafe_to_string b

let of_bytes s =
  if String.length s < 8 then invalid_arg "Field.of_bytes: need 8 bytes";
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code s.[i]
  done;
  of_int (!v land max_int)

let pp fmt x = Format.fprintf fmt "%d" x
