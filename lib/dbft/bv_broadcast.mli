(** Binary Value Broadcast (Mostéfaoui, Moumen & Raynal [25]), the
    reliable broadcast abstraction for binary values that DBFT rounds
    are built on — and that Lyra's Validating Value Broadcast extends.

    Guarantees: every delivered value was broadcast by a correct
    process (BV-Justification), all correct processes eventually
    deliver the same growing set (BV-Uniformity), and at least one
    value is eventually delivered (BV-Obligation).

    The module is transport-agnostic: it asks the host to [echo] EST
    messages, and the host reads deliveries with {!delivered}. The host
    feeds incoming EST messages via {!on_est}; self-delivery of the
    host's own echoes must come back through {!on_est} too
    (broadcasting to yourself is the host's job). *)

type t

(** [create ~n ~echo] — [echo b] must broadcast EST(b) to all n
    processes (including self). *)
val create : n:int -> echo:(int -> unit) -> t

(** [input t b] broadcasts this process's estimate (b ∈ {0, 1}). *)
val input : t -> int -> unit

(** [on_est t ~src b] processes EST(b) from process [src]. Duplicate
    messages from the same sender are ignored. *)
val on_est : t -> src:int -> int -> unit

(** [delivered t b] tells whether [b] is in bin_values. *)
val delivered : t -> int -> bool
