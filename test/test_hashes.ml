(* SHA-256 against FIPS 180-4 vectors. *)

open Crypto

let hex = Alcotest.(check string)

let sha s = Sha256.to_hex (Sha256.digest s)

let test_fips_vectors () =
  hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (sha "");
  hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (sha "abc");
  hex "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (sha "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  hex "896-bit"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (sha
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_million_a () =
  hex "1M x a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (sha (String.make 1_000_000 'a'))

let test_incremental_equals_oneshot () =
  let data = String.init 10_000 (fun i -> Char.chr (i mod 251)) in
  let rec chunks pos =
    if pos >= String.length data then []
    else
      let chunk = min 137 (String.length data - pos) in
      String.sub data pos chunk :: chunks (pos + chunk)
  in
  hex "incremental" (sha data) (Sha256.to_hex (Sha256.digest_list (chunks 0)))

let prop_incremental =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random split = one-shot" ~count:100
       QCheck.(pair small_string (int_bound 64))
       (fun (s, cut) ->
         let cut = min cut (String.length s) in
         String.equal
           (Sha256.digest_list [ String.sub s 0 cut; String.sub s cut (String.length s - cut) ])
           (Sha256.digest s)))

let test_digest_list () =
  hex "concat" (Sha256.to_hex (Sha256.digest "foobarbaz"))
    (Sha256.to_hex (Sha256.digest_list [ "foo"; "bar"; "baz" ]))

let test_hkdf_expand () =
  let a = Sha256.hkdf_expand ~key:"k" ~info:"i" 100 in
  Alcotest.(check int) "length" 100 (String.length a);
  let b = Sha256.hkdf_expand ~key:"k" ~info:"i" 100 in
  hex "deterministic" (Sha256.to_hex a) (Sha256.to_hex b);
  let c = Sha256.hkdf_expand ~key:"k2" ~info:"i" 100 in
  Alcotest.(check bool) "key sensitive" true (not (String.equal a c))

(* Oracle checks against [Sha256_ref], the implementation the kernel
   replaced: every length from 0 to 300 (so every padding case: 55, 56,
   63, 64, 119 and 120 bytes among them), random splits into parts
   (empty ones too) and the keystream. *)
let bytes_of_len len = String.init len (fun i -> Char.chr (((i * 131) + (len * 7)) land 0xFF))

let test_digest_matches_reference () =
  for len = 0 to 300 do
    let s = bytes_of_len len in
    hex (Printf.sprintf "digest %d" len) (Sha256.to_hex (Sha256_ref.digest s))
      (Sha256.to_hex (Sha256.digest s))
  done

let test_hkdf_matches_reference () =
  List.iter
    (fun (key, info) ->
      for n = 0 to 300 do
        hex (Printf.sprintf "hkdf %d" n)
          (Sha256.to_hex (Sha256_ref.hkdf_expand ~key ~info n))
          (Sha256.to_hex (Sha256.hkdf_expand ~key ~info n))
      done)
    [ ("", ""); ("k", "vss"); (bytes_of_len 8, "vss"); (bytes_of_len 70, bytes_of_len 57) ]

(* [cuts] are offsets into [s]; equal or out-of-order cuts make empty
   parts, as do cuts at 0 and at the end. *)
let split s cuts =
  let cuts = List.sort Int.compare (List.map (fun c -> c mod (String.length s + 1)) cuts) in
  let rec go pos = function
    | [] -> [ String.sub s pos (String.length s - pos) ]
    | c :: rest -> String.sub s pos (c - pos) :: go c rest
  in
  go 0 cuts

let prop_digest_list_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"digest_list = reference on random splits" ~count:300
       QCheck.(pair (int_bound 300) (small_list (int_bound 400)))
       (fun (len, cuts) ->
         let s = bytes_of_len len in
         let parts = split s cuts in
         let expected = Sha256_ref.digest s in
         String.equal (Sha256.digest_list parts) expected
         && String.equal (Sha256_ref.digest_list parts) expected
         && String.equal (Sha256.digest_list ("" :: parts @ [ "" ])) expected))

let test_million_a_matches_reference () =
  let s = String.make 1_000_000 'a' in
  let expected = Sha256.to_hex (Sha256_ref.digest s) in
  hex "digest" expected (Sha256.to_hex (Sha256.digest s));
  hex "digest_list" expected
    (Sha256.to_hex (Sha256.digest_list (split s [ 1; 64; 64; 1000; 999_999 ])))

let suite =
  [
    Alcotest.test_case "FIPS vectors" `Quick test_fips_vectors;
    Alcotest.test_case "million a" `Quick test_million_a;
    Alcotest.test_case "incremental" `Quick test_incremental_equals_oneshot;
    prop_incremental;
    Alcotest.test_case "digest_list" `Quick test_digest_list;
    Alcotest.test_case "hkdf expand" `Quick test_hkdf_expand;
    Alcotest.test_case "digest = reference, 0-300 bytes" `Quick
      test_digest_matches_reference;
    prop_digest_list_matches_reference;
    Alcotest.test_case "hkdf = reference" `Quick test_hkdf_matches_reference;
    Alcotest.test_case "million a = reference" `Quick test_million_a_matches_reference;
  ]
