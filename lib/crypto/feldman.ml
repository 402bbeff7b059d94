module Sharing = Shamir.Make (Group.Scalar)

type commitments = Group.element array

let deal rng ~secret ~threshold ~n =
  let shares, poly = Sharing.share rng ~secret ~threshold ~n in
  (shares, Array.map Group.commit poly)

let verify_share comms ({ x; y } : Sharing.share) =
  (* g^y = ∏_j C_j^{x^j}; the exponent x^j is folded incrementally. *)
  let expected = Group.commit y in
  let acc = ref Group.one in
  let xj = ref Group.Scalar.one in
  Array.iter
    (fun c ->
      acc := Group.mul !acc (Group.pow c !xj);
      xj := Group.Scalar.mul !xj x)
    comms;
  Group.equal expected !acc
