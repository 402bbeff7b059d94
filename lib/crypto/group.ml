(* Constants found by a deterministic Miller–Rabin search upward from
   2^60: Q is the first prime with 2Q + 1 also prime. *)
let q = 1152921504606849959

let p = 2305843009213699919 (* = 2q + 1 *)

(* Both moduli are pseudo-Mersenne: q = 2^60 + 2983 and p = 2^61 + 5967,
   so products reduce through 2^k ≡ −c (mod 2^k + c) instead of a
   double-and-add loop. Every helper takes k ∈ {60, 61} and c < 2^13;
   they are toplevel functions so that no closure is allocated per
   multiply. *)

(* x mod (2^k + c) for 0 ≤ x < 2^62: the high part x lsr k is at most 3. *)
let fold_pm k c x =
  let r = (x land ((1 lsl k) - 1)) - (c * (x lsr k)) in
  if r < 0 then r + (1 lsl k) + c else r

(* x·2^(k−30) mod m for x < m: split x at bit 30, and the high limb lands
   on weight 2^k. *)
let shift_pm k c x =
  let r = ((x land 0x3FFF_FFFF) lsl (k - 30)) - (c * (x lsr 30)) in
  if r < 0 then r + (1 lsl k) + c else r

let add_pm k c x y =
  let m = (1 lsl k) + c in
  let t = x + y in
  if t >= m then t - m else t

(* a·b mod m for a, b < m. With s = k − 30 the operands split into limbs
   a1·2^s + a0 (a1 ≤ 2^30, a0 < 2^s), so every partial product fits in
   62 bits, and the product is rebuilt by the Horner steps
   (hh·2^s + mid)·2^s + ll. *)
let mul_pm k c a b =
  let s = k - 30 in
  let a1 = a lsr s and a0 = a land ((1 lsl s) - 1) in
  let b1 = b lsr s and b0 = b land ((1 lsl s) - 1) in
  let hh = fold_pm k c (a1 * b1) in
  let mid = fold_pm k c ((a1 * b0) + (a0 * b1)) in
  let ll = fold_pm k c (a0 * b0) in
  add_pm k c (shift_pm k c (add_pm k c (shift_pm k c hh) mid)) ll

module Scalar = struct
  type t = int

  let order = q

  let zero = 0

  let one = 1

  let of_int x =
    let r = x mod q in
    if r < 0 then r + q else r

  let to_int x = x

  let equal = Int.equal

  let compare = Int.compare

  let add a b =
    let s = a + b in
    if s >= q then s - q else s

  let sub a b = if a >= b then a - b else a - b + q

  let neg a = if a = 0 then 0 else q - a

  let mul a b = mul_pm 60 2983 a b

  let pow b e =
    if e < 0 then invalid_arg "Group.Scalar.pow: negative exponent";
    let rec go acc b e =
      if e = 0 then acc
      else go (if e land 1 = 1 then mul acc b else acc) (mul b b) (e lsr 1)
    in
    go one (of_int b) e

  let inv x =
    if x = 0 then raise Division_by_zero;
    pow x (q - 2)

  let div a b = mul a (inv b)

  let random rng =
    let rec draw () =
      let v = Rng.int64_nonneg rng land ((1 lsl 61) - 1) in
      if v >= q then draw () else v
    in
    draw ()

  let to_bytes x = String.init 8 (fun i -> Char.chr ((x lsr (8 * i)) land 0xFF))
end

type element = int

let g = 4

let one = 1

let equal = Int.equal

let mul a b = mul_pm 61 5967 a b

let pow h (s : Scalar.t) =
  let e = Scalar.to_int s in
  let rec go acc b e =
    if e = 0 then acc
    else go (if e land 1 = 1 then mul acc b else acc) (mul b b) (e lsr 1)
  in
  go one h e

let commit s = pow g s

let to_bytes x = String.init 8 (fun i -> Char.chr ((x lsr (8 * i)) land 0xFF))
