(** Schnorr signatures over GF(2^61 − 1).

    Implements the paper's [private-sign] / [public-verify] pair (§II-B).
    Nonces are derived deterministically from the secret key and message
    (RFC 6979 style), so signing is stateless and reproducible. Exponent
    arithmetic is carried out mod (p − 1), which keeps the verification
    identity g^s = r · pk^e exact for any generator. *)

type signature = { r : Field.t; s : int }

(** [sign kp msg] signs [msg] with the secret key of [kp]. *)
val sign : Keys.keypair -> string -> signature

(** [verify ~pk msg sg] checks [sg] against public key [pk]. *)
val verify : pk:Field.t -> string -> signature -> bool

(** [verify_by ~dir ~signer msg sg] looks the signer up in the directory,
    i.e. the paper's [public-verify(m, σ, j)]. *)
val verify_by : dir:Keys.directory -> signer:int -> string -> signature -> bool

val equal : signature -> signature -> bool
