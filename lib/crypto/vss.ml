type scheme = Hashed | Feldman

type proof =
  | Hashed_proof of string array
  | Feldman_proof of Feldman.commitments

type cipher = {
  body : string;
  checksum : string;
  n : int;
  threshold : int;
  proof : proof;
}

type decryption_share = { holder : int; share : Feldman.Sharing.share }

module Scalar = Group.Scalar

let keystream key len =
  Sha256.hkdf_expand ~key:(Scalar.to_bytes key) ~info:"vss" len

let xor_with ks s =
  let out = Bytes.create (String.length s) in
  for i = 0 to String.length s - 1 do
    Bytes.set out i (Char.unsafe_chr (Char.code s.[i] lxor Char.code ks.[i]))
  done;
  Bytes.unsafe_to_string out

let share_commitment holder (share : Feldman.Sharing.share) =
  Sha256.digest_list
    [
      "vss-share";
      string_of_int holder;
      Scalar.to_bytes share.x;
      Scalar.to_bytes share.y;
    ]

let encrypt ?(scheme = Hashed) rng ~n ~threshold payload =
  let key = Scalar.random rng in
  let body = xor_with (keystream key (String.length payload)) payload in
  let shares, proof =
    match scheme with
    | Hashed ->
        let shares, _poly =
          Feldman.Sharing.share rng ~secret:key ~threshold ~n
        in
        (shares, Hashed_proof (Array.mapi share_commitment shares))
    | Feldman ->
        let shares, comms = Feldman.deal rng ~secret:key ~threshold ~n in
        (shares, Feldman_proof comms)
  in
  let cipher =
    { body; checksum = Sha256.digest payload; n; threshold; proof }
  in
  (cipher, Array.mapi (fun holder share -> { holder; share }) shares)

let verify_share cipher ds =
  ds.holder >= 0 && ds.holder < cipher.n
  && Scalar.equal ds.share.Feldman.Sharing.x (Scalar.of_int (ds.holder + 1))
  &&
  match cipher.proof with
  | Hashed_proof hashes ->
      String.equal (share_commitment ds.holder ds.share) hashes.(ds.holder)
  | Feldman_proof comms -> Feldman.verify_share comms ds.share

(* A share that passed [verify_share] against [against], the cipher
   value it is bound to. *)
type checked_share = { against : cipher; ds : decryption_share }

let check_share cipher ds =
  if verify_share cipher ds then Some { against = cipher; ds } else None

let decrypt_checked cipher checked =
  let valid =
    List.filter_map
      (fun c -> if c.against == cipher then Some c.ds else None)
      checked
    |> List.sort_uniq (fun a b -> Int.compare a.holder b.holder)
  in
  if List.length valid < cipher.threshold then None
  else
    let subset =
      List.filteri (fun i _ -> i < cipher.threshold) valid
      |> List.map (fun ds -> ds.share)
    in
    let key = Feldman.Sharing.reconstruct subset in
    let payload =
      xor_with (keystream key (String.length cipher.body)) cipher.body
    in
    if String.equal (Sha256.digest payload) cipher.checksum then Some payload
    else None

let decrypt cipher shares =
  decrypt_checked cipher (List.filter_map (check_share cipher) shares)

let proof_bytes = function
  | Hashed_proof hashes -> Array.to_list hashes
  | Feldman_proof comms -> Array.to_list (Array.map Group.to_bytes comms)

let tag cipher =
  Sha256.digest_list (cipher.body :: cipher.checksum :: proof_bytes cipher.proof)
