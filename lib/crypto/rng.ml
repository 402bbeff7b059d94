(* The state lives in an 8-byte buffer rather than a mutable [int64]
   field: the bytes primitives read and write it unboxed, so a draw
   allocates nothing (a mutable [int64] field boxes every update). *)
type t = Bytes.t

let create seed =
  let b = Bytes.create 8 in
  Bytes.set_int64_ne b 0 seed;
  b

let copy t = Bytes.copy t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] advance t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  s

let next_int64 t = mix (advance t)

let split t =
  let seed = next_int64 t in
  (* A second mix decorrelates the child stream from the parent's. *)
  create (mix seed)

let int64_nonneg t = Int64.to_int (mix (advance t)) land max_int

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling removes modulo bias. *)
  let limit = max_int - (max_int mod bound) in
  let rec draw () =
    let v = int64_nonneg t in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let bits53 t = Int64.to_int (Int64.shift_right_logical (mix (advance t)) 11)

let float t =
  (* 53 random bits scaled into [0, 1). *)
  float_of_int (bits53 t) /. 9007199254740992.0

let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t in
    if u = 0.0 then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let exponential t ~mean =
  let rec nonzero () =
    let u = float t in
    if u = 0.0 then nonzero () else u
  in
  -.mean *. log (nonzero ())

let bytes t n =
  String.init n (fun _ -> Char.chr (int t 256))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t l =
  match l with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth l (int t (List.length l))
