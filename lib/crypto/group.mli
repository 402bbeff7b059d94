(** A prime-order commitment group for Feldman VSS.

    P = 2Q + 1 is a 61-bit safe prime (both P and Q prime), and
    {!element}s live in the order-Q subgroup of quadratic residues of
    Z_P*. Discrete-log-based commitments (Feldman) need the secret-
    sharing scalars to live in Z_Q, the exponent field of the group —
    this is exactly what {!Scalar} provides. The Mersenne field
    {!Field} cannot play this role because 2^61 − 2 is smooth. *)

(** The group modulus P (prime) and subgroup order Q (prime), P = 2Q+1. *)
val p : int (* lint: allow S005 test_field checks the group kernel against Field.mulmod mod p *)

val q : int (* lint: allow S005 test_field checks the scalar kernel against Field.mulmod mod q *)

(** [mul_pm k c a b] is a·b mod (2^k + c), for k ∈ {60, 61}, 0 < c < 2^13
    and 0 ≤ a, b < 2^k + c, by a limb multiply that folds through
    2^k ≡ −c. Q = 2^60 + 2983 and P = 2^61 + 5967, so this is
    {!Scalar.mul} (k = 60) and {!mul} (k = 61). Exposed for tests. *)
val mul_pm : int -> int -> int -> int -> int (* lint: allow S005 exposed for test_field's boundary cases *)

(** Exponent field Z_Q. *)
module Scalar : Field_intf.S

type element = private int

(** Subgroup generator (h = 4, a quadratic residue of order Q). *)
val g : element (* lint: allow S005 test_field checks the generator's order *)

val one : element

val equal : element -> element -> bool

val mul : element -> element -> element

(** [pow h s] is h^s for a scalar exponent. *)
val pow : element -> Scalar.t -> element

(** [commit s] is g^s, the basic Pedersen-style commitment to scalar [s]. *)
val commit : Scalar.t -> element

val to_bytes : element -> string
