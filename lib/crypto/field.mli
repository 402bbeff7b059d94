(** Arithmetic in the prime field GF(p) for the Mersenne prime
    p = 2^61 − 1.

    Elements fit in OCaml's native 63-bit [int], so all operations are
    allocation-free. The field underlies the Schnorr signatures, Shamir
    secret sharing and Feldman VSS commitments used by Lyra's
    commit-reveal scheme. The 61-bit size is a documented substitution
    for a production-strength group (see DESIGN.md §1): it exercises the
    same algebra at toy security level. *)

type t = private int

(** The modulus, 2^61 − 1 = 2305843009213693951. *)
val p : int

(** Same as [p]; satisfies {!Field_intf.S}. *)
val order : int

(** Additive and multiplicative identities. *)
val zero : t

val one : t

(** A fixed group generator used by signatures and VSS commitments. *)
val g : t

(** [of_int x] reduces an arbitrary integer (possibly negative) mod p. *)
val of_int : int -> t

val to_int : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int

val add : t -> t -> t

val sub : t -> t -> t

val neg : t -> t

val mul : t -> t -> t

(** [pow b e] is b^e mod p for a non-negative exponent [e]. *)
val pow : t -> int -> t

(** A precomputed fixed-base table (4-bit windows, 256 elements). *)
type table

(** [table b] precomputes the powers of [b] that {!pow_table} reads. *)
val table : t -> table

(** [pow_table (table b) e] is [pow b e], in at most 16 multiplies. *)
val pow_table : table -> int -> t

(** [table g], built once at module initialization. *)
val g_table : table

(** [inv x] is the multiplicative inverse; raises [Division_by_zero] on
    [zero]. *)
val inv : t -> t

val div : t -> t -> t

(** Uniformly random field element. *)
val random : Rng.t -> t

(** Uniformly random non-zero field element. *)
val random_nonzero : Rng.t -> t

(** [mulmod a b m] is a·b mod m for any modulus 0 < m < 2^62, computed
    without overflow. Used for exponent arithmetic mod (p − 1) in the
    Schnorr scheme. *)
val mulmod : int -> int -> int -> int

(** Little-endian 8-byte encoding of an element. *)
val to_bytes : t -> string

(** Inverse of [to_bytes]; values ≥ p are reduced. Requires 8 bytes. *)
val of_bytes : string -> t

val pp : Format.formatter -> t -> unit
