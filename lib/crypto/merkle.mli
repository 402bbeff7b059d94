(** Binary Merkle hash trees.

    The Commit protocol piggybacks the accepted-transaction set on every
    message; the paper notes that "hash trees are used in lieu of older
    prefixes to reduce message size" (§V-C). Here a root digests a
    batch's contents. *)

(** [root_of_leaves leaves] is the root digest of the tree over the
    (possibly empty) list of leaf payloads; for no leaves, the digest of
    the empty string. Leaves are domain-separated from internal nodes,
    so a leaf cannot be confused with a subtree. *)
val root_of_leaves : string list -> string
