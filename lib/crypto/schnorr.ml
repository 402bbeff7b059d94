type signature = { r : Field.t; s : int }

let q = Field.p - 1 (* exponent group order *)

(* First 8 digest bytes reduced mod q: a hash-to-exponent map. *)
let hash_to_exp parts =
  let d = Sha256.digest_list parts in
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v land max_int mod q

let challenge r msg = hash_to_exp [ "chal"; Field.to_bytes r; msg ]

let sign (kp : Keys.keypair) msg =
  (* Deterministic nonce; a zero nonce would leak nothing here but is
     degenerate, so it is nudged to 1. *)
  let k = hash_to_exp [ "nonce"; string_of_int kp.sk; msg ] in
  let k = if k = 0 then 1 else k in
  let r = Field.pow_table Field.g_table k in
  let s = (k + Field.mulmod (challenge r msg) kp.sk q) mod q in
  { r; s }

(* g^s = r · pk^e, with pk^e supplied by the caller: a plain power for
   an arbitrary key, a table lookup for a directory member. *)
let holds s r pk_e =
  Field.equal (Field.pow_table Field.g_table s) (Field.mul r pk_e)

let verify ~pk msg { r; s } =
  s >= 0 && s < q && holds s r (Field.pow pk (challenge r msg))

let verify_by ~dir ~signer msg { r; s } =
  signer >= 0
  && signer < Keys.size dir
  && s >= 0 && s < q
  && holds s r (Field.pow_table (Keys.public_table dir signer) (challenge r msg))

let equal a b = Field.equal a.r b.r && a.s = b.s
