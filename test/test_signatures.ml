(* Schnorr signatures and the quorum threshold scheme. *)

open Crypto

let rng = Rng.create 123L

let test_sign_verify () =
  let kp = Keys.generate rng ~id:0 in
  let sg = Schnorr.sign kp "hello world" in
  Alcotest.(check bool) "verifies" true (Schnorr.verify ~pk:kp.pk "hello world" sg)

let test_wrong_message_fails () =
  let kp = Keys.generate rng ~id:0 in
  let sg = Schnorr.sign kp "hello" in
  Alcotest.(check bool) "rejects" false (Schnorr.verify ~pk:kp.pk "hellO" sg)

let test_wrong_key_fails () =
  let kp = Keys.generate rng ~id:0 and other = Keys.generate rng ~id:1 in
  let sg = Schnorr.sign kp "hello" in
  Alcotest.(check bool) "rejects" false (Schnorr.verify ~pk:other.pk "hello" sg)

let test_deterministic () =
  let kp = Keys.generate rng ~id:0 in
  let a = Schnorr.sign kp "m" and b = Schnorr.sign kp "m" in
  Alcotest.(check bool) "same signature" true (Field.equal a.r b.r && Int.equal a.s b.s)

let test_directory_verify () =
  let pairs, dir = Keys.setup rng 4 in
  let sg = Schnorr.sign pairs.(2) "m" in
  Alcotest.(check bool) "by signer 2" true (Schnorr.verify_by ~dir ~signer:2 "m" sg);
  Alcotest.(check bool) "not signer 1" false (Schnorr.verify_by ~dir ~signer:1 "m" sg);
  Alcotest.(check bool) "bad index" false (Schnorr.verify_by ~dir ~signer:9 "m" sg)

let test_tampered_s_fails () =
  let kp = Keys.generate rng ~id:0 in
  let sg = Schnorr.sign kp "m" in
  let bad = { sg with Schnorr.s = sg.Schnorr.s + 1 } in
  Alcotest.(check bool) "rejects" false (Schnorr.verify ~pk:kp.pk "m" bad)

let prop_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"sign/verify roundtrip" ~count:50 QCheck.small_string
       (fun msg ->
         let kp = Keys.generate rng ~id:0 in
         Schnorr.verify ~pk:kp.pk msg (Schnorr.sign kp msg)))

let test_threshold_roundtrip () =
  let pairs, dir = Keys.setup rng 7 in
  let shares =
    Array.to_list (Array.map (fun kp -> Threshold.share_sign kp "payload") pairs)
  in
  List.iter
    (fun sh -> Alcotest.(check bool) "share ok" true (Threshold.share_verify ~dir "payload" sh))
    shares;
  match Threshold.combine ~threshold:5 shares with
  | None -> Alcotest.fail "combine failed"
  | Some c ->
      Alcotest.(check bool) "combined ok" true
        (Threshold.verify_combined ~dir ~threshold:5 "payload" c);
      Alcotest.(check bool) "wrong msg" false
        (Threshold.verify_combined ~dir ~threshold:5 "other" c);
      Alcotest.(check int) "5 signers" 5 (Array.length c.shares)

let test_threshold_too_few () =
  let pairs, _ = Keys.setup rng 7 in
  let shares =
    List.init 4 (fun i -> Threshold.share_sign pairs.(i) "m")
  in
  Alcotest.(check bool) "needs 5" true (Threshold.combine ~threshold:5 shares = None)

let test_threshold_duplicate_signers () =
  let pairs, _ = Keys.setup rng 7 in
  let sh = Threshold.share_sign pairs.(0) "m" in
  (* 5 copies of the same signer are one distinct signer *)
  Alcotest.(check bool) "duplicates don't count" true
    (Threshold.combine ~threshold:5 [ sh; sh; sh; sh; sh ] = None)

let test_threshold_forged_share () =
  let pairs, dir = Keys.setup rng 4 in
  let sh = Threshold.share_sign pairs.(0) "m" in
  let forged = { sh with Threshold.signer = 1 } in
  Alcotest.(check bool) "forged rejected" false (Threshold.share_verify ~dir "m" forged)

(* ------------------------------------------------------------------ *)
(* Amortized verification cache.                                      *)
(* ------------------------------------------------------------------ *)

(* Cached verify must be observationally equal to direct verify on an
   arbitrary mix of valid, cross-signed, and tampered signatures — the
   cache may only change *when* work happens, never the answer. Messages
   come from a small pool so a twisted signature often follows the
   honest one it twists: [s ± p] is [s] mod p, so a cache keyed on the
   reduced [s] would hand it the honest verdict. *)
let prop_cache_observational_equality =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"verify cache ≡ direct verify" ~count:200
       QCheck.(
         list
           (triple (int_bound 3)
              (oneof [ small_string; oneofl [ ""; "a"; "b" ] ])
              (int_bound 4)))
       (fun cases ->
         let pairs, _dir = Keys.setup rng 4 in
         let cache = Verify_cache.create () in
         List.for_all
           (fun (signer, msg, twist) ->
             let kp = pairs.(signer) in
             let sg = Schnorr.sign kp msg in
             (* 0: honest; 1: tampered signature; 2: wrong key;
                3, 4: s shifted by ±p (negative for 4) *)
             let pk, sg =
               match twist with
               | 1 -> (kp.Keys.pk, { sg with Schnorr.s = sg.Schnorr.s + 1 })
               | 2 -> (pairs.((signer + 1) mod 4).Keys.pk, sg)
               | 3 -> (kp.Keys.pk, { sg with Schnorr.s = sg.Schnorr.s + Field.p })
               | 4 -> (kp.Keys.pk, { sg with Schnorr.s = sg.Schnorr.s - Field.p })
               | _ -> (kp.Keys.pk, sg)
             in
             Bool.equal
               (Verify_cache.verify cache ~pk msg sg)
               (Schnorr.verify ~pk msg sg))
           cases))

(* Twists shared by the directory and certificate properties. [s + q]
   still satisfies g^s = r · pk^e (g has order dividing q = p − 1), so
   only the range check rejects it. *)
let twist_signature msg (sg : Schnorr.signature) = function
  | 1 -> (msg, { sg with s = sg.s + 1 })
  | 2 -> (msg, { sg with s = sg.s + Field.p })
  | 3 -> (msg, { sg with s = sg.s - Field.p })
  | 4 -> (msg, { sg with r = Field.mul sg.r Field.g })
  | 5 -> (msg ^ "!", sg)
  | 6 -> (msg, { sg with s = sg.s + Field.p - 1 })
  | _ -> (msg, sg)

(* The directory path (per-key fixed-base tables) answers exactly as a
   plain verify against the looked-up key, and rejects an unknown
   signer; so does the cache in front of it. *)
let prop_verify_by_equals_verify =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"verify_by ≡ verify ~pk:(public_key dir signer)"
       ~count:200
       QCheck.(
         list
           (quad (int_range (-1) 5) (int_bound 3) (oneofl [ "m"; "n" ])
              (int_bound 7)))
       (fun cases ->
         let pairs, dir = Keys.setup rng 4 in
         let cache = Verify_cache.create () in
         List.for_all
           (fun (claimed, key, msg, twist) ->
             let msg, sg = twist_signature msg (Schnorr.sign pairs.(key) msg) twist in
             let expected =
               claimed >= 0 && claimed < 4
               && Schnorr.verify ~pk:(Keys.public_key dir claimed) msg sg
             in
             Bool.equal (Schnorr.verify_by ~dir ~signer:claimed msg sg) expected
             && Bool.equal
                  (Verify_cache.verify_by cache ~dir ~signer:claimed msg sg)
                  expected)
           cases))

(* Certificates built by hand, not by [Threshold.combine]: 3 to 7
   honest distinct signers plus up to three extra shares that may
   duplicate a signer, name an unknown one, be signed by the wrong key
   or over another message, or be tampered with; checked against the
   certificate's message or the other one, sorted by signer (the
   cache's no-sort path when no signer repeats) or as built. One cache sees the whole
   sequence. *)
let prop_cache_combined_equality =
  let cert_gen =
    QCheck.Gen.(
      let* k = int_range 3 7 in
      let* offset = int_bound 6 in
      let* extras =
        list_size (int_range 0 3)
          (pair (int_range (-1) 8)
             (frequency [ (2, return 0); (5, int_range 1 6); (1, return 7) ]))
      in
      let* msg = oneofl [ "d0"; "d1" ] in
      let* checked_msg = frequency [ (3, return msg); (1, oneofl [ "d0"; "d1" ]) ] in
      let+ sorted = bool in
      (List.init k (fun j -> ((offset + j) mod 7, 0)) @ extras, msg, sorted, checked_msg))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"cached verify_combined ≡ Threshold.verify_combined"
       ~count:200
       (QCheck.make QCheck.Gen.(list_size (int_range 1 8) cert_gen))
       (fun certs ->
         let pairs, dir = Keys.setup rng 7 in
         let cache = Verify_cache.create () in
         List.for_all
           (fun (spec, msg, sorted, checked_msg) ->
             let share (signer, twist) =
               (* twist 5: over another message; 7: by the next key *)
               let key = (abs signer + if twist = 7 then 1 else 0) mod 7 in
               let signed = if twist = 5 then msg ^ "!" else msg in
               let _, sigma =
                 twist_signature signed (Schnorr.sign pairs.(key) signed) twist
               in
               { Threshold.signer; sigma }
             in
             let shares = List.map share spec in
             let shares =
               if sorted then
                 List.stable_sort
                   (fun (a : Threshold.share) b -> Int.compare a.signer b.signer)
                   shares
               else shares
             in
             let c = { Threshold.shares = Array.of_list shares } in
             Bool.equal
               (Verify_cache.verify_combined cache ~dir ~threshold:5 checked_msg c)
               (Threshold.verify_combined ~dir ~threshold:5 checked_msg c))
           certs))

(* 10 000 distinct messages: the table never holds more than its bound,
   and answers stay exact across every reset, for honest signatures,
   s + p twists and re-probes of messages long since forgotten. *)
let test_cache_bounded () =
  let pairs, dir = Keys.setup rng 4 in
  let cache = Verify_cache.create () in
  let signed i =
    let msg = "msg-" ^ string_of_int i in
    let sg = Schnorr.sign pairs.(i mod 4) msg in
    (msg, if i mod 3 = 0 then { sg with Schnorr.s = sg.Schnorr.s + Field.p } else sg)
  in
  let check i =
    let msg, sg = signed i in
    let signer = i mod 4 in
    Alcotest.(check bool)
      (Printf.sprintf "message %d" i)
      (Schnorr.verify ~pk:(Keys.public_key dir signer) msg sg)
      (Verify_cache.verify_by cache ~dir ~signer msg sg)
  in
  for i = 0 to 9_999 do
    check i;
    if i >= 5_000 then check (i - 5_000);
    if Verify_cache.size cache > Verify_cache.max_messages then
      Alcotest.failf "%d messages held after %d, bound %d" (Verify_cache.size cache) i
        Verify_cache.max_messages
  done;
  (* Every re-probe missed: each old message had been forgotten. *)
  Alcotest.(check int) "re-probes re-verified" 15_000 (Verify_cache.misses cache)

(* Forged variants of one message fill its bucket and no more: probing
   them all twice stores the first [max_entries] verdicts only, and
   every answer is still exact. *)
let test_cache_bucket_bounded () =
  let kp = Keys.generate rng ~id:0 in
  let cache = Verify_cache.create () in
  let sg = Schnorr.sign kp "m" in
  let variants = Verify_cache.max_entries + 50 in
  for _ = 1 to 2 do
    for i = 0 to variants - 1 do
      let forged = { sg with Schnorr.s = sg.Schnorr.s + i } in
      Alcotest.(check bool)
        (Printf.sprintf "variant %d" i)
        (Schnorr.verify ~pk:kp.pk "m" forged)
        (Verify_cache.verify cache ~pk:kp.pk "m" forged)
    done
  done;
  Alcotest.(check int) "hits" Verify_cache.max_entries (Verify_cache.hits cache);
  Alcotest.(check int) "misses" (variants + 50) (Verify_cache.misses cache)

let test_cache_hits_and_misses () =
  let kp = Keys.generate rng ~id:0 in
  let cache = Verify_cache.create () in
  let sg = Schnorr.sign kp "m" in
  Alcotest.(check bool) "first ok" true (Verify_cache.verify cache ~pk:kp.pk "m" sg);
  Alcotest.(check int) "one miss" 1 (Verify_cache.misses cache);
  Alcotest.(check int) "no hit yet" 0 (Verify_cache.hits cache);
  for _ = 1 to 5 do
    Alcotest.(check bool) "repeat ok" true
      (Verify_cache.verify cache ~pk:kp.pk "m" sg)
  done;
  Alcotest.(check int) "still one miss" 1 (Verify_cache.misses cache);
  Alcotest.(check int) "five hits" 5 (Verify_cache.hits cache);
  (* A tampered signature is a distinct key: cached separately, and its
     (negative) verdict is served from the cache on re-probe. *)
  let bad = { sg with Schnorr.s = sg.Schnorr.s + 1 } in
  Alcotest.(check bool) "tampered rejected" false
    (Verify_cache.verify cache ~pk:kp.pk "m" bad);
  Alcotest.(check bool) "tampered rejected again" false
    (Verify_cache.verify cache ~pk:kp.pk "m" bad);
  Alcotest.(check int) "two misses" 2 (Verify_cache.misses cache);
  Alcotest.(check int) "six hits" 6 (Verify_cache.hits cache)

let test_cache_combined_amortizes () =
  let pairs, dir = Keys.setup rng 7 in
  let cache = Verify_cache.create () in
  let shares =
    Array.to_list (Array.map (fun kp -> Threshold.share_sign kp "payload") pairs)
  in
  (* Verify shares one by one (vote arrival), then the assembled
     certificate: the certificate costs zero fresh verifications. *)
  List.iter
    (fun sh ->
      Alcotest.(check bool) "share ok" true
        (Verify_cache.share_verify cache ~dir "payload" sh))
    shares;
  let fresh = Verify_cache.misses cache in
  match Threshold.combine ~threshold:5 shares with
  | None -> Alcotest.fail "combine failed"
  | Some c ->
      Alcotest.(check bool) "cert ok" true
        (Verify_cache.verify_combined cache ~dir ~threshold:5 "payload" c);
      Alcotest.(check bool) "cert matches direct" true
        (Threshold.verify_combined ~dir ~threshold:5 "payload" c);
      Alcotest.(check int) "no new misses" fresh (Verify_cache.misses cache);
      Alcotest.(check bool) "wrong msg rejected" false
        (Verify_cache.verify_combined cache ~dir ~threshold:5 "other" c)

(* Enabling the cache must not perturb a seeded real-crypto cluster
   run: two identical runs commit identical logs (the cache consumes no
   randomness), pinned against the pre-cache behavior by the golden
   cluster tests which run with real_crypto elsewhere. *)
let test_cache_seeded_determinism () =
  let run () =
    let engine = Sim.Engine.create ~seed:77L () in
    let pairs, dir = Keys.setup (Sim.Engine.rng engine) 4 in
    let cache = Verify_cache.create () in
    let transcript = ref [] in
    for i = 0 to 19 do
      let kp = pairs.(i mod 4) in
      let msg = Printf.sprintf "msg-%d" (i mod 5) in
      let sg = Schnorr.sign kp msg in
      let ok = Verify_cache.verify_by cache ~dir ~signer:kp.Keys.id msg sg in
      transcript := (i, ok) :: !transcript
    done;
    (!transcript, Verify_cache.hits cache, Verify_cache.misses cache)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical transcripts and counters" true (a = b)

let suite =
  [
    Alcotest.test_case "sign/verify" `Quick test_sign_verify;
    Alcotest.test_case "wrong message" `Quick test_wrong_message_fails;
    Alcotest.test_case "wrong key" `Quick test_wrong_key_fails;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "directory verify" `Quick test_directory_verify;
    Alcotest.test_case "tampered s" `Quick test_tampered_s_fails;
    prop_roundtrip;
    Alcotest.test_case "threshold roundtrip" `Quick test_threshold_roundtrip;
    Alcotest.test_case "threshold too few" `Quick test_threshold_too_few;
    Alcotest.test_case "threshold duplicates" `Quick test_threshold_duplicate_signers;
    Alcotest.test_case "threshold forged share" `Quick test_threshold_forged_share;
    prop_cache_observational_equality;
    Alcotest.test_case "cache hits/misses" `Quick test_cache_hits_and_misses;
    Alcotest.test_case "cache amortizes certificates" `Quick
      test_cache_combined_amortizes;
    Alcotest.test_case "cache seeded determinism" `Quick
      test_cache_seeded_determinism;
    prop_verify_by_equals_verify;
    prop_cache_combined_equality;
    Alcotest.test_case "cache bounded" `Quick test_cache_bounded;
    Alcotest.test_case "cache bucket bounded" `Quick test_cache_bucket_bounded;
  ]
