(** Shamir secret sharing (paper §II-B, [28]), generic over the scalar
    field.

    A secret is embedded as the constant term of a random polynomial of
    degree threshold − 1; share i is the evaluation at x = i + 1. Any
    [threshold] shares reconstruct the secret by Lagrange interpolation
    at 0; fewer reveal nothing (information-theoretically).

    Two instantiations are used in the library: the default one over the
    fast Mersenne field (payload keys of the hashed VSS scheme), and
    [Make (Group.Scalar)] inside {!Feldman}, where the scalar field must
    match the commitment group's exponent order. *)

module type SCHEME = sig
  type elt

  type share = { x : elt; y : elt }

  type polynomial = elt array
  (** Coefficients, low degree first; [coeffs.(0)] is the secret. *)

  (** [eval poly x] evaluates the polynomial at [x] (Horner). *)
  val eval : polynomial -> elt -> elt

  (** [share rng ~secret ~threshold ~n] returns the [n] shares and the
      polynomial. Requires [0 < threshold <= n]. *)
  val share :
    Rng.t -> secret:elt -> threshold:int -> n:int -> share array * polynomial

  (** [reconstruct shares] interpolates at 0. Requires pairwise-distinct
      [x] coordinates; with at least [threshold] honest shares the result
      is the secret. *)
  val reconstruct : share list -> elt

  (** [lagrange_coefficient xs x] is the Lagrange basis coefficient at 0
      for point [x] among points [xs], by k − 1 field divisions. It is
      the reference that the batch-inverting [reconstruct] is tested
      against. *)
  val lagrange_coefficient : elt list -> elt -> elt
end

module Make (F : Field_intf.S) : SCHEME with type elt = F.t

(** Default instantiation over the Mersenne field {!Field}. *)
include SCHEME with type elt = Field.t
