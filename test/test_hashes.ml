(* SHA-256 against FIPS 180-4 vectors. *)

open Crypto

let hex = Alcotest.(check string)

let test_fips_vectors () =
  hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  hex "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  hex "896-bit"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Sha256.hex
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_million_a () =
  hex "1M x a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_incremental_equals_oneshot () =
  let data = String.init 10_000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let rec feed pos =
    if pos < String.length data then begin
      let chunk = min 137 (String.length data - pos) in
      Sha256.update ctx (String.sub data pos chunk);
      feed (pos + chunk)
    end
  in
  feed 0;
  hex "incremental" (Sha256.to_hex (Sha256.digest data)) (Sha256.to_hex (Sha256.final ctx))

let prop_incremental =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random split = one-shot" ~count:100
       QCheck.(pair small_string (int_bound 64))
       (fun (s, cut) ->
         let cut = min cut (String.length s) in
         let ctx = Sha256.init () in
         Sha256.update ctx (String.sub s 0 cut);
         Sha256.update ctx (String.sub s cut (String.length s - cut));
         String.equal (Sha256.final ctx) (Sha256.digest s)))

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

let suite =
  [
    Alcotest.test_case "FIPS vectors" `Quick test_fips_vectors;
    Alcotest.test_case "million a" `Quick test_million_a;
    Alcotest.test_case "incremental" `Quick test_incremental_equals_oneshot;
    prop_incremental;
    Alcotest.test_case "digest_list" `Quick test_digest_list;
    Alcotest.test_case "hkdf expand" `Quick test_hkdf_expand;
  ]
