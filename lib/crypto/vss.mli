(** Transaction payload obfuscation via (threshold, n) secret sharing —
    the paper's [vss-encrypt] / [vss-partial-decrypt] / [vss-decrypt]
    triple (§II-B), used by Lyra's commit-reveal scheme.

    [encrypt] draws a random scalar as symmetric key, encrypts the
    payload with a SHA-256 keystream, Shamir-shares the key over Z_Q and
    publishes per-share commitments. The cipher (public) travels with
    the consensus messages; share i (private) is handed to process i. A
    process reveals its share only once the transaction is committed
    (§V-C line 95); with 2f + 1 verified shares anybody reconstructs the
    key and decrypts.

    Two commitment schemes are provided (DESIGN.md §1):
    - {!Hashed} — hash commitments to each share, the scheme the paper's
      own prototype uses (§VI-A, citing Halevi–Micali [13]); share
      verification is one hash. Default for the large experiments.
    - {!Feldman} — full Feldman VSS over the safe-prime group; share
      verification checks polynomial consistency, so even the dealer
      cannot produce inconsistent shares. *)

type scheme = Hashed | Feldman

type proof = private
  | Hashed_proof of string array  (** H(i ‖ share_i) per process *)
  | Feldman_proof of Feldman.commitments

type cipher = {
  body : string;  (** keystream-encrypted payload *)
  checksum : string;  (** digest of the plaintext, to detect bad keys *)
  n : int;
  threshold : int;
  proof : proof;
}

type decryption_share = { holder : int; share : Feldman.Sharing.share }

(** [encrypt ?scheme rng ~n ~threshold payload] returns the public
    cipher and the private per-process decryption shares ([holder] =
    process index). Default scheme: {!Hashed}. *)
val encrypt :
  ?scheme:scheme ->
  Rng.t ->
  n:int ->
  threshold:int ->
  string ->
  cipher * decryption_share array

(** [verify_share cipher ds] checks a revealed share against the
    cipher's commitments, rejecting Byzantine garbage. *)
val verify_share : cipher -> decryption_share -> bool

(** A share that passed {!verify_share}, bound to the cipher value it
    was checked against. A node checks each revealed share once and
    keeps it in this form until decryption. *)
type checked_share

(** [check_share cipher ds] is [ds] checked against [cipher], or [None]
    if {!verify_share} rejects it. *)
val check_share : cipher -> decryption_share -> checked_share option

(** [decrypt_checked cipher checked] is {!decrypt} over shares already
    checked: it verifies nothing again. A share bound to any cipher
    value other than [cipher] (by physical identity; an equal copy is
    another value) is ignored, so no unchecked share is ever used. *)
val decrypt_checked : cipher -> checked_share list -> string option

(** [decrypt cipher shares] reconstructs the key from at least
    [threshold] distinct verified shares and returns the payload, or
    [None] if shares are insufficient/invalid or the checksum fails.
    It checks every share, then is {!decrypt_checked}. *)
val decrypt : cipher -> decryption_share list -> string option

(** Stable identifier of a cipher (digest of its public part), used as
    the transaction id before the payload is revealed. *)
val tag : cipher -> string
