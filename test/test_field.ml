(* Field axioms and encoding for GF(2^61 − 1) and the safe-prime
   scalar field. *)

open Crypto

let rng = Rng.create 99L

let felt = QCheck.make (fun _ -> Field.random rng) ~print:(fun x -> string_of_int (Field.to_int x))

let prop name f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:300 QCheck.(triple felt felt felt) f)

let test_constants () =
  Alcotest.(check int) "p value" 2305843009213693951 Field.p;
  Alcotest.(check int) "order = p" Field.p Field.order;
  Alcotest.(check bool) "g nonzero" true (not (Field.equal Field.g Field.zero))

let test_of_int_negative () =
  Alcotest.(check int) "-1 wraps" (Field.p - 1) (Field.to_int (Field.of_int (-1)))

let test_inv_zero_raises () =
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Field.inv Field.zero))

let test_pow_edges () =
  let x = Field.random rng in
  Alcotest.(check int) "x^0 = 1" 1 (Field.to_int (Field.pow x 0));
  Alcotest.(check int) "x^1 = x" (Field.to_int x) (Field.to_int (Field.pow x 1));
  (* Fermat: x^(p-1) = 1 for x ≠ 0 *)
  let x = Field.random_nonzero rng in
  Alcotest.(check int) "fermat" 1 (Field.to_int (Field.pow x (Field.p - 1)))

let test_bytes_roundtrip () =
  for _ = 1 to 100 do
    let x = Field.random rng in
    Alcotest.(check bool) "roundtrip" true
      (Field.equal x (Field.of_bytes (Field.to_bytes x)))
  done

let test_mulmod_small () =
  Alcotest.(check int) "7*9 mod 13" 11 (Field.mulmod 7 9 13);
  Alcotest.(check int) "0*x" 0 (Field.mulmod 0 123456 997);
  Alcotest.(check int) "identity" 42 (Field.mulmod 42 1 1_000_000);
  (* (−1)·(−2) = 2 for moduli whose running sums pass max_int *)
  Alcotest.(check int) "m near 2^62" 2 (Field.mulmod (max_int - 1) (max_int - 2) max_int);
  Alcotest.(check int) "m = group p" 2 (Field.mulmod (Group.p - 1) (Group.p - 2) Group.p);
  (* cross-check against native multiplication where it fits *)
  let r = Rng.create 5L in
  for _ = 1 to 1000 do
    let a = Rng.int r 1_000_000 and b = Rng.int r 1_000_000 in
    let m = 1 + Rng.int r 1_000_000 in
    Alcotest.(check int) "matches native" (a * b mod m) (Field.mulmod a b m)
  done

let test_group_scalar_axioms () =
  let module S = Group.Scalar in
  let r = Rng.create 17L in
  for _ = 1 to 200 do
    let a = S.random r and b = S.random r in
    Alcotest.(check bool) "comm add" true (S.equal (S.add a b) (S.add b a));
    Alcotest.(check bool) "comm mul" true (S.equal (S.mul a b) (S.mul b a));
    if not (S.equal a S.zero) then
      Alcotest.(check bool) "inverse" true (S.equal (S.mul a (S.inv a)) S.one)
  done

let test_group_generator_order () =
  (* h = 4 generates the order-Q subgroup: h^Q = 1 and h ≠ 1. *)
  let hq = Group.pow Group.g (Group.Scalar.of_int 0) in
  Alcotest.(check bool) "h^0 = 1" true (Group.equal hq Group.one);
  let e = Field.mulmod 1 (Group.q - 1) Group.q in
  let almost = Group.pow Group.g (Group.Scalar.of_int e) in
  Alcotest.(check bool) "h^(q-1) <> 1" true (not (Group.equal almost Group.one));
  Alcotest.(check bool) "h^(q-1) * h = 1" true
    (Group.equal (Group.mul almost Group.g) Group.one)

let test_group_safe_prime () =
  Alcotest.(check int) "p = 2q+1" Group.p ((2 * Group.q) + 1)

(* The pseudo-Mersenne products must equal the generic double-and-add
   [Field.mulmod]: at the limb and fold boundaries, pairwise, and on
   uniform operands. *)
let boundaries m =
  List.filter (fun x -> x < m)
    [ 0; 1; 2; 1 lsl 30; (1 lsl 30) - 1; 1 lsl 31; (1 lsl 60) - 1; 1 lsl 60;
      (1 lsl 60) + 2982; (1 lsl 61) - 1; 1 lsl 61; m - 2; m - 1 ]

let check_boundaries name mul m () =
  let bs = boundaries m in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check int) (Printf.sprintf "%s %d*%d" name a b) (Field.mulmod a b m) (mul a b))
        bs)
    bs

let mul_prop name mul m =
  let operand =
    QCheck.make
      QCheck.Gen.(oneof [ oneofl (boundaries m); (fun st -> Random.State.full_int st m) ])
      ~print:string_of_int
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:2000 (QCheck.pair operand operand) (fun (a, b) ->
         Int.equal (mul a b) (Field.mulmod a b m)))

let scalar_mul a b = Group.Scalar.(to_int (mul (of_int a) (of_int b)))

let group_mul = Group.mul_pm 61 5967

(* Group elements can only be built inside the subgroup, so Group.mul
   itself is checked on random powers of g. *)
let prop_group_mul_subgroup =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Group.mul = mulmod p on subgroup elements" ~count:300
       QCheck.(pair felt felt)
       (fun (a, b) ->
         let a = Group.commit (Group.Scalar.of_int (Field.to_int a))
         and b = Group.commit (Group.Scalar.of_int (Field.to_int b)) in
         Int.equal (Group.mul a b :> int) (Field.mulmod (a :> int) (b :> int) Group.p)))

(* The fixed-base table must give Field.pow's answer at the edge bases
   and at every exponent width a caller can pass, the top nibble
   included. *)
let prop_pow_table =
  let base =
    QCheck.make
      QCheck.Gen.(
        oneof
          [
            oneofl [ Field.zero; Field.one; Field.of_int (Field.p - 1); Field.g ];
            (fun st -> Field.of_int (Random.State.full_int st Field.p));
          ])
      ~print:(fun x -> string_of_int (Field.to_int x))
  in
  let exponent =
    QCheck.make
      QCheck.Gen.(
        oneof
          [
            oneofl [ 0; 1; Field.p - 2; (1 lsl 61) - 1; max_int ];
            (fun st -> Random.State.full_int st max_int);
          ])
      ~print:string_of_int
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"pow_table (table b) e = pow b e" ~count:1000
       (QCheck.pair base exponent) (fun (b, e) ->
         let expected = Field.pow b e in
         Field.equal (Field.pow_table (Field.table b) e) expected
         && ((not (Field.equal b Field.g))
            || Field.equal (Field.pow_table Field.g_table e) expected)))

let test_pow_table_negative () =
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Field.pow_table: negative exponent") (fun () ->
      ignore (Field.pow_table Field.g_table (-1)))

(* The byte encodings against the [String.init] formula they
   replaced: eight little-endian bytes of the int. *)
let to_bytes_reference x = String.init 8 (fun i -> Char.chr ((x lsr (8 * i)) land 0xFF))

let test_to_bytes_reference () =
  let check name to_bytes xs =
    List.iter
      (fun x ->
        Alcotest.(check string) (Printf.sprintf "%s %d" name x) (to_bytes_reference x) (to_bytes x))
      xs
  in
  let randoms draw = List.init 200 (fun _ -> draw ()) in
  check "field"
    (fun x -> Field.to_bytes (Field.of_int x))
    ([ 0; 1; Field.p - 1 ] @ randoms (fun () -> Field.to_int (Field.random rng)));
  check "scalar"
    (fun x -> Group.Scalar.to_bytes (Group.Scalar.of_int x))
    ([ 0; 1; Group.q - 1 ]
    @ randoms (fun () -> Group.Scalar.to_int (Group.Scalar.random rng)));
  let elements =
    Group.one :: Group.g
    :: List.init 200 (fun _ -> Group.commit (Group.Scalar.random rng))
  in
  List.iter
    (fun e ->
      Alcotest.(check string) "element" (to_bytes_reference (e : Group.element :> int)) (Group.to_bytes e))
    elements

let suite =
  [
    Alcotest.test_case "scalar mul boundaries" `Quick (check_boundaries "scalar" scalar_mul Group.q);
    Alcotest.test_case "group mul boundaries" `Quick (check_boundaries "group" group_mul Group.p);
    mul_prop "Scalar.mul = mulmod q" scalar_mul Group.q;
    mul_prop "mul_pm 61 5967 = mulmod p" group_mul Group.p;
    prop_group_mul_subgroup;
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "of_int negative" `Quick test_of_int_negative;
    Alcotest.test_case "inv zero raises" `Quick test_inv_zero_raises;
    Alcotest.test_case "pow edges" `Quick test_pow_edges;
    Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
    Alcotest.test_case "to_bytes = String.init formula" `Quick test_to_bytes_reference;
    Alcotest.test_case "mulmod" `Quick test_mulmod_small;
    Alcotest.test_case "scalar axioms" `Quick test_group_scalar_axioms;
    Alcotest.test_case "generator order" `Quick test_group_generator_order;
    Alcotest.test_case "safe prime" `Quick test_group_safe_prime;
    prop "add assoc" (fun (a, b, c) ->
        Field.equal (Field.add a (Field.add b c)) (Field.add (Field.add a b) c));
    prop "mul assoc" (fun (a, b, c) ->
        Field.equal (Field.mul a (Field.mul b c)) (Field.mul (Field.mul a b) c));
    prop "distributivity" (fun (a, b, c) ->
        Field.equal (Field.mul a (Field.add b c))
          (Field.add (Field.mul a b) (Field.mul a c)));
    prop "sub inverse of add" (fun (a, b, _) ->
        Field.equal a (Field.sub (Field.add a b) b));
    prop "neg" (fun (a, _, _) -> Field.equal Field.zero (Field.add a (Field.neg a)));
    prop "mul inverse" (fun (a, _, _) ->
        Field.equal a Field.zero || Field.equal Field.one (Field.mul a (Field.inv a)));
    prop "pow homomorphism" (fun (a, _, _) ->
        Field.equal (Field.mul (Field.pow a 5) (Field.pow a 7)) (Field.pow a 12));
    prop_pow_table;
    Alcotest.test_case "pow_table negative" `Quick test_pow_table_negative;
  ]
