(** Hierarchical timing wheel (4 levels x 256 slots, 1 µs ticks) with a
    calendar-style overflow list for timers past the ~71-minute horizon.
    Replaced the binary event heap ([bench/event_heap.ml]) in {!Engine}:
    the identical (time, insertion-seq) total order, at O(1) amortized
    push/pop instead of O(log n).

    Monomorphic on an [int] payload, which the wheel never interprets
    (the engine packs its event kind and a slot or argument into it).
    Entries live in one pool of blocks, each holding {!block} (time,
    payload) pairs side by side; a bucket is a chain of blocks. The
    pool grows by doubling and recycles emptied blocks, so neither side
    of the queue allocates once it has grown, and storage follows the
    number of pending entries; a per-level occupancy bitmap finds the
    next non-empty slot.

    Contract: [add ~time] requires [time] to be no earlier than the
    timestamp of the most recently taken entry (the engine's clock
    monotonicity already guarantees this). *)

type t

val create : unit -> t

(** [add w ~time p] inserts payload [p] at [time].
    @raise Invalid_argument if [p] is negative ({!pop_until} returns
    [-1] for "nothing due"). *)
val add : t -> time:int -> int -> unit

(** [pop_until w ~until] removes the earliest entry (ties broken by
    insertion order) if its timestamp is at most [until], and returns
    its payload; its timestamp is then {!last_time}. Returns [-1],
    removing nothing, when [w] is empty or its earliest entry is later
    than [until]. [~until:max_int] pops whatever is next. *)
val pop_until : t -> until:int -> int

(** Timestamp of the entry the last {!pop_until} removed (0 before any). *)
val last_time : t -> int

(** Entries stored. *)
val size : t -> int

val is_empty : t -> bool

(** Words of storage the wheel holds: the fixed list heads, tails and
    occupancy bitmap, plus [2 * block + 1] per pool block. The pool
    starts empty and doubles only when every block is in use. A list
    (one of 1 024 buckets, the ready buffer, the list of entries pushed
    behind a cascade, and the overflow list) holds [ceil (k / block)]
    blocks for its [k] entries, one more while its head block is being
    consumed, and one block more is held while a list is re-inserted;
    so the pool is at most the peak of that count rounded up to a power
    of two. *)
val storage_words : t -> int

(** Entries per pool block (16). *)
val block : int (* lint: allow S005 pool geometry for test_sim's storage bound *)
