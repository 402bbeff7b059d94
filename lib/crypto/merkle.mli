(** Binary Merkle hash trees.

    The Commit protocol piggybacks the accepted-transaction set on every
    message; the paper notes that "hash trees are used in lieu of older
    prefixes to reduce message size" (§V-C). Nodes exchange roots of
    their accepted prefix and audit paths for individual transactions. *)

type tree

(** [of_leaves leaves] builds a tree over the (possibly empty) list of
    leaf payloads. Leaves are domain-separated from internal nodes, so a
    leaf cannot be confused with a subtree. *)
val of_leaves : string list -> tree

(** Root digest; for an empty tree, the digest of the empty string. *)
val root : tree -> string

val size : tree -> int

(** [proof tree i] is the audit path for leaf [i]. *)
val proof : tree -> int -> string list

(** [verify_proof ~root ~leaf ~index ~size path] checks an audit path. *)
val verify_proof :
  root:string -> leaf:string -> index:int -> size:int -> string list -> bool

(** [root_of_leaves leaves] = [root (of_leaves leaves)] without keeping
    the tree. *)
val root_of_leaves : string list -> string
