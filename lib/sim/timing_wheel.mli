(** Hierarchical timing wheel (4 levels x 256 slots, 1 µs ticks) with a
    calendar-style overflow list for timers past the ~71-minute horizon.
    Replaced {!Event_heap} in {!Engine}: the identical (time,
    insertion-seq) total order, at O(1) amortized push/pop instead of
    O(log n).

    Monomorphic on an [int] payload, which the wheel never interprets
    (the engine packs its event kind and a slot or argument into it).
    An entry is two adjacent ints in its bucket's array, so neither
    side of the queue allocates once bucket storage has grown; a
    per-level occupancy bitmap finds the next non-empty slot.

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
