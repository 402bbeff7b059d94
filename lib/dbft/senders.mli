(** A set of process ids 0..n−1 with its size, in one heap block of
    2 + ⌈n/62⌉ words (3 at n = 16, 4 at n = 100): the distinct-sender
    tallies behind every quorum (votes, ESTs, AUXs, reveal shares,
    Decided notices, timestamp responses, HotStuff votes). *)

type t

(** [create n] is the empty set over ids 0..n−1. *)
val create : int -> t

(** [add t i] inserts [i] and tells whether it was new. Raises
    [Invalid_argument] unless 0 ≤ i < n. *)
val add : t -> int -> bool

(** Raises [Invalid_argument] unless 0 ≤ i < n. *)
val mem : t -> int -> bool

(** The number of ids in the set. *)
val count : t -> int

(** The ids in ascending order. *)
val to_list : t -> int list

(** A set with the same ids that later [add]s to [t] do not change. *)
val copy : t -> t
