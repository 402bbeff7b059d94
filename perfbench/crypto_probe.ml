(* Per-operation timings of the public Crypto functions Lyra calls with
   real_crypto on, at a workload's n, supermajority threshold and batch
   payload size. Every probe runs warm and checks its own result first
   (a verify accepts valid input and rejects tampered input, a decrypt
   returns the payload), so no probe can time a broken path. *)

let check name ok = if not ok then failwith ("crypto probe " ^ name ^ ": wrong result")

(* Median over five batches of the mean time per call, in µs. *)
let time_us f =
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let t0 = Span.now_ns () in
  ignore (Sys.opaque_identity (f ()));
  let once = max 1 (Span.now_ns () - t0) in
  let iters = max 1 (20_000_000 / once) in
  let batch () =
    let t0 = Span.now_ns () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    float_of_int (Span.now_ns () - t0) /. float_of_int iters /. 1e3
  in
  let xs = Array.init 5 (fun _ -> batch ()) in
  Array.sort Float.compare xs;
  xs.(2)

let tamper s =
  let b = Bytes.of_string s in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
  Bytes.to_string b

let run ~n ~threshold ~payload_bytes =
  let rng = Crypto.Rng.create 0x70726f6265L in
  let keys, dir = Crypto.Keys.setup rng n in
  let digest = Crypto.Sha256.digest (Crypto.Rng.bytes rng 64) in
  let payload = Crypto.Rng.bytes rng (max 1 payload_bytes) in
  let sigma = Crypto.Schnorr.sign keys.(0) digest in
  check "schnorr_verify" (Crypto.Schnorr.verify ~pk:keys.(0).pk digest sigma);
  check "schnorr_verify" (not (Crypto.Schnorr.verify ~pk:keys.(0).pk (tamper digest) sigma));
  let shares =
    List.init threshold (fun i -> Crypto.Threshold.share_sign keys.(i) digest)
  in
  let share = List.hd shares in
  check "share_verify" (Crypto.Threshold.share_verify ~dir digest share);
  check "share_verify" (not (Crypto.Threshold.share_verify ~dir (tamper digest) share));
  let combined =
    match Crypto.Threshold.combine ~threshold shares with
    | Some c -> c
    | None -> failwith "crypto probe verify_combined: combine failed"
  in
  check "verify_combined" (Crypto.Threshold.verify_combined ~dir ~threshold digest combined);
  check "verify_combined"
    (not (Crypto.Threshold.verify_combined ~dir ~threshold (tamper digest) combined));
  let cipher, dshares = Crypto.Vss.encrypt ~scheme:Crypto.Vss.Hashed rng ~n ~threshold payload in
  check "vss_verify_share" (Crypto.Vss.verify_share cipher dshares.(0));
  check "vss_verify_share"
    (not (Crypto.Vss.verify_share cipher { (dshares.(1)) with Crypto.Vss.holder = 0 }));
  let subset = Array.to_list (Array.sub dshares 0 threshold) in
  check "vss_decrypt"
    (Option.equal String.equal (Crypto.Vss.decrypt cipher subset) (Some payload));
  let hash = Crypto.Sha256.digest payload in
  check "sha256_batch"
    (String.length hash = 32
    && String.equal hash (Crypto.Sha256.digest (Bytes.to_string (Bytes.of_string payload)))
    && not (String.equal hash (Crypto.Sha256.digest (tamper payload))));
  [
    ("crypto.schnorr_sign_us", time_us (fun () -> Crypto.Schnorr.sign keys.(0) digest));
    ( "crypto.schnorr_verify_us",
      time_us (fun () -> Crypto.Schnorr.verify ~pk:keys.(0).pk digest sigma) );
    ("crypto.share_verify_us", time_us (fun () -> Crypto.Threshold.share_verify ~dir digest share));
    ( "crypto.verify_combined_us",
      time_us (fun () -> Crypto.Threshold.verify_combined ~dir ~threshold digest combined) );
    ( "crypto.vss_encrypt_us",
      time_us (fun () -> Crypto.Vss.encrypt ~scheme:Crypto.Vss.Hashed rng ~n ~threshold payload) );
    ("crypto.vss_verify_share_us", time_us (fun () -> Crypto.Vss.verify_share cipher dshares.(0)));
    ("crypto.vss_decrypt_us", time_us (fun () -> Crypto.Vss.decrypt cipher subset));
    ("crypto.sha256_batch_us", time_us (fun () -> Crypto.Sha256.digest payload));
  ]
