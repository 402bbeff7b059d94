(** Binary Merkle hash trees.

    The Commit protocol piggybacks the accepted-transaction set on every
    message; the paper notes that "hash trees are used in lieu of older
    prefixes to reduce message size" (§V-C). Nodes exchange roots of
    their accepted prefix and audit paths for individual transactions. *)

(** [root_of_leaves leaves] is the root digest of the tree over the
    (possibly empty) list of leaf payloads; for no leaves, the digest of
    the empty string. Leaves are domain-separated from internal nodes,
    so a leaf cannot be confused with a subtree. *)
val root_of_leaves : string list -> string

(** [proof leaves i] is the audit path for leaf [i]. *)
val proof : string list -> int -> string list (* lint: allow S005 audit paths have no protocol caller yet; test_merkle pins them *)

(** [verify_proof ~root ~leaf ~index ~size path] checks an audit path. *)
(* lint: allow S005 audit paths have no protocol caller yet; test_merkle pins them *)
val verify_proof :
  root:string -> leaf:string -> index:int -> size:int -> string list -> bool
