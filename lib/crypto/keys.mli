(** Key material for the permissioned system.

    Every process knows the public keys of all n processes from the start
    (§II-B of the paper, "as implemented in permissioned blockchains"). A
    {!directory} is that shared public-key table. *)

type keypair = {
  id : int;  (** process index in Π *)
  sk : int;  (** secret scalar, 0 < sk < p − 1 *)
  pk : Field.t;  (** g^sk *)
}

type directory

(** [generate rng ~id] creates a fresh keypair for process [id]. *)
val generate : Rng.t -> id:int -> keypair

(** [setup rng n] generates [n] keypairs and the shared directory. *)
val setup : Rng.t -> int -> keypair array * directory

(** [public_key dir i] is the public key of process [i]. *)
val public_key : directory -> int -> Field.t

(** [public_table dir i] is [Field.table (public_key dir i)], built on
    first use and kept for the directory's lifetime. *)
val public_table : directory -> int -> Field.table

(** Number of registered processes. *)
val size : directory -> int
