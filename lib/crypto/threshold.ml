type share = { signer : int; sigma : Schnorr.signature }

type combined = { shares : share array }

let share_sign (kp : Keys.keypair) msg =
  { signer = kp.id; sigma = Schnorr.sign kp msg }

let share_verify ~dir msg sh =
  Schnorr.verify_by ~dir ~signer:sh.signer msg sh.sigma

let combine ~threshold shares =
  let distinct =
    List.sort_uniq (fun a b -> Int.compare a.signer b.signer) shares
  in
  if List.length distinct < threshold then None
  else
    Some { shares = Array.of_list (List.filteri (fun i _ -> i < threshold) distinct) }

let verify_combined ~dir ~threshold msg c =
  let distinct =
    Array.to_list c.shares
    |> List.sort_uniq (fun a b -> Int.compare a.signer b.signer)
  in
  List.length distinct >= threshold
  && List.for_all (share_verify ~dir msg) distinct
