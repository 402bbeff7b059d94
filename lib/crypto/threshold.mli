(** (2f+1, n) threshold signature scheme — the paper's [share-sign] /
    [share-verify] / [share-combine] / [share-threshold] quadruple
    (§II-B).

    Realized as a quorum multi-signature: a share is an individual
    Schnorr signature, and the combined object carries [threshold]
    verified shares from distinct signers. This is functionally
    equivalent to a BLS threshold signature (an unforgeable proof that a
    quorum signed the message); the simulator cost model charges O(1)
    for combined-proof verification to match BLS (DESIGN.md §1). *)

type share = { signer : int; sigma : Schnorr.signature }

type combined = { shares : share array }

(** [share_sign kp msg] is the paper's [share-sign(m) → π_m]. *)
val share_sign : Keys.keypair -> string -> share

(** [share_verify ~dir msg sh] is [share-verify(m, π_m, j)]. *)
val share_verify : dir:Keys.directory -> string -> share -> bool

(** [combine ~threshold shares] builds a full signature from at least
    [threshold] shares with distinct signers ([share-combine]); returns
    [None] if there are too few distinct signers. Shares are not
    re-verified here; verify them on receipt. *)
val combine : threshold:int -> share list -> combined option

(** [verify_combined ~dir ~threshold msg c] is
    [share-threshold(Π_m, m)]: checks that [c] contains [threshold]
    valid shares from distinct signers. *)
val verify_combined :
  dir:Keys.directory -> threshold:int -> string -> combined -> bool
