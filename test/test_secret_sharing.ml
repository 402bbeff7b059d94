(* Shamir sharing, Feldman VSS and the payload-obfuscation layer. *)

open Crypto

let rng = Rng.create 321L

let test_shamir_reconstruct_all () =
  let secret = Field.random rng in
  let shares, _ = Shamir.share rng ~secret ~threshold:4 ~n:9 in
  Alcotest.(check bool) "all shares" true
    (Field.equal secret (Shamir.reconstruct (Array.to_list shares)))

let prop_shamir_any_subset =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"shamir: any threshold-subset reconstructs" ~count:100
       QCheck.(pair (int_bound 1000) (int_bound 1000))
       (fun (s1, s2) ->
         let r = Rng.create (Int64.of_int ((s1 * 1009) + s2 + 1)) in
         let secret = Field.random r in
         let n = 3 + Rng.int r 8 in
         let threshold = 1 + Rng.int r n in
         let shares, _ = Shamir.share r ~secret ~threshold ~n in
         let idx = Array.init n (fun i -> i) in
         Rng.shuffle r idx;
         let subset = List.init threshold (fun i -> shares.(idx.(i))) in
         Field.equal secret (Shamir.reconstruct subset)))

let test_shamir_below_threshold_hides () =
  let secret = Field.random rng in
  let shares, _ = Shamir.share rng ~secret ~threshold:5 ~n:9 in
  (* with t−1 shares the interpolation value is (whp) not the secret *)
  let subset = List.init 4 (fun i -> shares.(i)) in
  Alcotest.(check bool) "hidden" false (Field.equal secret (Shamir.reconstruct subset))

let test_shamir_duplicate_rejected () =
  let secret = Field.random rng in
  let shares, _ = Shamir.share rng ~secret ~threshold:2 ~n:4 in
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Shamir.reconstruct: duplicate share coordinates")
    (fun () -> ignore (Shamir.reconstruct [ shares.(0); shares.(0) ]))

let test_shamir_bad_params () =
  Alcotest.check_raises "t > n" (Invalid_argument "Shamir.share: need 0 < threshold <= n")
    (fun () -> ignore (Shamir.share rng ~secret:Field.one ~threshold:5 ~n:4))

let test_feldman_verify () =
  let secret = Group.Scalar.random rng in
  let shares, comms = Feldman.deal rng ~secret ~threshold:4 ~n:9 in
  Array.iter
    (fun s -> Alcotest.(check bool) "share verifies" true (Feldman.verify_share comms s))
    shares

let test_feldman_tampered () =
  let secret = Group.Scalar.random rng in
  let shares, comms = Feldman.deal rng ~secret ~threshold:3 ~n:5 in
  let bad =
    { shares.(0) with Feldman.Sharing.y = Group.Scalar.add shares.(0).y Group.Scalar.one }
  in
  Alcotest.(check bool) "tampered rejected" false (Feldman.verify_share comms bad)

let test_feldman_reconstruct () =
  let secret = Group.Scalar.random rng in
  let shares, _ = Feldman.deal rng ~secret ~threshold:3 ~n:7 in
  Alcotest.(check bool) "reconstructs" true
    (Group.Scalar.equal secret
       (Feldman.Sharing.reconstruct [ shares.(6); shares.(2); shares.(4) ]))

let vss_roundtrip scheme () =
  let payload = Rng.bytes rng 500 in
  let cipher, ds = Vss.encrypt ~scheme rng ~n:7 ~threshold:5 payload in
  Alcotest.(check bool) "cipher differs from plaintext" true
    (not (String.equal cipher.Vss.body payload));
  let subset = [ ds.(0); ds.(2); ds.(3); ds.(5); ds.(6) ] in
  (match Vss.decrypt cipher subset with
  | Some p -> Alcotest.(check string) "decrypts" payload p
  | None -> Alcotest.fail "decrypt failed");
  Alcotest.(check bool) "too few shares" true
    (Vss.decrypt cipher [ ds.(0); ds.(1); ds.(2); ds.(3) ] = None)

let vss_share_validation scheme () =
  let cipher, ds = Vss.encrypt ~scheme rng ~n:5 ~threshold:4 "payload" in
  Array.iter
    (fun d -> Alcotest.(check bool) "valid" true (Vss.verify_share cipher d))
    ds;
  let stolen = { ds.(0) with Vss.holder = 1 } in
  Alcotest.(check bool) "wrong holder" false (Vss.verify_share cipher stolen);
  let corrupt =
    {
      ds.(0) with
      Vss.share =
        {
          ds.(0).Vss.share with
          Feldman.Sharing.y = Group.Scalar.add ds.(0).Vss.share.y Group.Scalar.one;
        };
    }
  in
  Alcotest.(check bool) "corrupt share" false (Vss.verify_share cipher corrupt);
  (* decrypt must survive being handed garbage alongside good shares *)
  let good = [ ds.(1); ds.(2); ds.(3); ds.(4) ] in
  Alcotest.(check bool) "ignores garbage" true
    (Vss.decrypt cipher (corrupt :: good) = Some "payload")

let test_vss_tag_distinct () =
  let c1, _ = Vss.encrypt rng ~n:4 ~threshold:3 "a" in
  let c2, _ = Vss.encrypt rng ~n:4 ~threshold:3 "a" in
  (* fresh randomness ⇒ distinct ciphers and tags *)
  Alcotest.(check bool) "tags differ" true (not (String.equal (Vss.tag c1) (Vss.tag c2)))

(* ------------------------------------------------------------------ *)
(* Property sweep over the obfuscation layer in BFT framing: n = 3f+1  *)
(* holders, threshold 2f+1. Any honest quorum must recover the         *)
(* payload, any f+1-smaller coalition must not, and tampering must be  *)
(* detected.                                                           *)
(* ------------------------------------------------------------------ *)

let vss_setup (s1, s2) =
  let r = Rng.create (Int64.of_int ((s1 * 7919) + s2 + 1)) in
  let f = 1 + Rng.int r 3 in
  let n = (3 * f) + 1 in
  let scheme = if Rng.bool r then Vss.Hashed else Vss.Feldman in
  let payload = Rng.bytes r (1 + Rng.int r 200) in
  let cipher, ds = Vss.encrypt ~scheme r ~n ~threshold:((2 * f) + 1) payload in
  let idx = Array.init n (fun i -> i) in
  Rng.shuffle r idx;
  (r, f, payload, cipher, ds, idx)

let seed_gen = QCheck.(pair (int_bound 1000) (int_bound 1000))

let prop_vss_any_quorum =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"vss: any 2f+1 subset decrypts" ~count:60 seed_gen
       (fun seeds ->
         let _, f, payload, cipher, ds, idx = vss_setup seeds in
         let subset = List.init ((2 * f) + 1) (fun i -> ds.(idx.(i))) in
         match Vss.decrypt cipher subset with
         | Some p -> String.equal p payload
         | None -> false))

let prop_vss_below_quorum =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"vss: 2f shares decrypt nothing" ~count:60 seed_gen
       (fun seeds ->
         let _, f, _, cipher, ds, idx = vss_setup seeds in
         let subset = List.init (2 * f) (fun i -> ds.(idx.(i))) in
         Option.is_none (Vss.decrypt cipher subset)))

let prop_vss_tamper_detected =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"vss: tampered share detected and ignored"
       ~count:60 seed_gen (fun seeds ->
         let _, f, _, cipher, ds, idx = vss_setup seeds in
         let victim = ds.(idx.(0)) in
         let corrupt =
           {
             victim with
             Vss.share =
               {
                 victim.Vss.share with
                 Feldman.Sharing.y =
                   Group.Scalar.add victim.Vss.share.y Group.Scalar.one;
               };
           }
         in
         (* 2f honest shares + the tampered one: a quorum by count, but
            the forgery must be rejected, leaving too few to decrypt. *)
         let honest = List.init (2 * f) (fun i -> ds.(idx.(i + 1))) in
         (not (Vss.verify_share cipher corrupt))
         && Option.is_none (Vss.decrypt cipher (corrupt :: honest))))

(* The batch-inverting reconstruct against the per-coefficient
   Lagrange fold, on random subsets (any size, so also below the
   threshold) in random order. *)
let prop_reconstruct_is_lagrange (type e) name
    (module F : Field_intf.S with type t = e)
    (module S : Shamir.SCHEME with type elt = e) =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:200 seed_gen (fun (s1, s2) ->
         let r = Rng.create (Int64.of_int ((s1 * 4099) + s2 + 1)) in
         let n = 1 + Rng.int r 16 in
         let threshold = 1 + Rng.int r n in
         let shares, _ = S.share r ~secret:(F.random r) ~threshold ~n in
         let idx = Array.init n (fun i -> i) in
         Rng.shuffle r idx;
         let subset = List.init (1 + Rng.int r n) (fun i -> shares.(idx.(i))) in
         let xs = List.map (fun (sh : S.share) -> sh.x) subset in
         let reference =
           List.fold_left
             (fun acc (sh : S.share) -> F.add acc (F.mul sh.y (S.lagrange_coefficient xs sh.x)))
             F.zero subset
         in
         F.equal reference (S.reconstruct subset)))

let suite =
  [
    prop_reconstruct_is_lagrange "shamir: reconstruct = lagrange fold" (module Field) (module Shamir);
    prop_reconstruct_is_lagrange "feldman: reconstruct = lagrange fold" (module Group.Scalar)
      (module Feldman.Sharing);
    Alcotest.test_case "shamir all shares" `Quick test_shamir_reconstruct_all;
    prop_shamir_any_subset;
    Alcotest.test_case "shamir below threshold" `Quick test_shamir_below_threshold_hides;
    Alcotest.test_case "shamir duplicates" `Quick test_shamir_duplicate_rejected;
    Alcotest.test_case "shamir bad params" `Quick test_shamir_bad_params;
    Alcotest.test_case "feldman verify" `Quick test_feldman_verify;
    Alcotest.test_case "feldman tampered" `Quick test_feldman_tampered;
    Alcotest.test_case "feldman reconstruct" `Quick test_feldman_reconstruct;
    Alcotest.test_case "vss hashed roundtrip" `Quick (vss_roundtrip Vss.Hashed);
    Alcotest.test_case "vss feldman roundtrip" `Quick (vss_roundtrip Vss.Feldman);
    Alcotest.test_case "vss hashed shares" `Quick (vss_share_validation Vss.Hashed);
    Alcotest.test_case "vss feldman shares" `Quick (vss_share_validation Vss.Feldman);
    Alcotest.test_case "vss tags distinct" `Quick test_vss_tag_distinct;
    prop_vss_any_quorum;
    prop_vss_below_quorum;
    prop_vss_tamper_detected;
  ]
