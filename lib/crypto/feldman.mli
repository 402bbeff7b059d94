(** Feldman verifiable secret sharing (paper §II-B, [6]).

    Sharing happens over the exponent field Z_Q of the safe-prime
    commitment group {!Group}; the dealer publishes C_j = g^{a_j} for
    each coefficient a_j of the Shamir polynomial. Anyone can then check
    that a share (x, y) is consistent with the committed polynomial:
    g^y = ∏_j C_j^{x^j}. This is what makes the reveal phase of the
    commit-reveal scheme *verifiable*: a Byzantine process cannot inject
    a bogus decryption share without detection. *)

module Sharing : Shamir.SCHEME with type elt = Group.Scalar.t

type commitments = Group.element array

(** [deal rng ~secret ~threshold ~n] shares a scalar secret and returns
    (shares, commitments). *)
val deal :
  Rng.t ->
  secret:Group.Scalar.t ->
  threshold:int ->
  n:int ->
  Sharing.share array * commitments

(** [verify_share comms share] checks share consistency against the
    dealer's commitments. *)
val verify_share : commitments -> Sharing.share -> bool
