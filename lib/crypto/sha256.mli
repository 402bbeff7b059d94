(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used as the collision-resistant hash assumed by the paper (§II-B):
    message digests for signatures, Merkle trees, hash commitments, and
    the keystream of the VSS payload cipher. Verified against the FIPS
    test vectors in the test suite. *)

(** [digest s] is the raw 32-byte digest of [s]. *)
val digest : string -> string

(** [digest_list parts] hashes the concatenation of [parts] without
    building it. *)
val digest_list : string list -> string

(** [to_hex raw] renders a raw digest (or any string) as lowercase hex. *)
val to_hex : string -> string

(** [hkdf_expand ~key ~info n] derives [n] pseudo-random bytes from
    [key] and [info] by counter-mode hashing. Used as the VSS payload
    keystream. *)
val hkdf_expand : key:string -> info:string -> int -> string
