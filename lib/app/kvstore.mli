(** In-memory ordered key-value store — the execution backend of the
    paper's benchmark ("committed transactions are written in a
    key-value store", §VI-A).

    Commands are encoded as strings so they can ride inside transaction
    payloads: ["put k v"], ["get k"], ["del k"]. The store keeps a
    digest chain over applied commands, so two replicas that executed
    the same command sequence agree on {!state_digest} — the
    cross-replica check used by the SMR tests. *)

type t

val create : unit -> t

type result = Unit | Value of string option

(** [apply_payload t s] parses and applies a command and folds [s] into
    the digest chain; malformed commands ([None]) are no-ops folded
    into the digest too (so replicas agree even on junk). *)
val apply_payload : t -> string -> result option

val size : t -> int

(** Number of commands applied. *)
val applied : t -> int

(** Digest chain head: equal iff the applied command sequences are
    equal. *)
val state_digest : t -> string
