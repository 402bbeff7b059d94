(** Hierarchical timing wheel (4 levels x 256 slots, 1 µs ticks) with a
    calendar-style overflow list for timers past the ~71-minute horizon.
    Replaced {!Event_heap} in {!Engine}: the identical (time,
    insertion-seq) total order, at O(1) amortized push/pop instead of
    O(log n).

    Monomorphic on an [int] payload, which the wheel never interprets
    (the engine packs its event kind and a slot or argument into it).
    An entry is two ints in a bucket's parallel arrays, so neither
    side of the queue allocates once bucket storage has grown.

    Contract: [add ~time] requires [time] to be no earlier than the
    timestamp of the most recently taken entry (the engine's clock
    monotonicity already guarantees this). *)

type t

val create : unit -> t

(** [add w ~time p] inserts payload [p] at [time]. *)
val add : t -> time:int -> int -> unit

(** [head_time w] is the timestamp of the earliest entry, or [max_int]
    if there is none. *)
val head_time : t -> int

(** [take w] removes the earliest entry (ties broken by insertion
    order) and returns its payload; its timestamp is then
    {!last_time}.
    @raise Invalid_argument if [w] is empty. *)
val take : t -> int

(** Timestamp of the entry the last {!take} removed (0 before any). *)
val last_time : t -> int

(** Entries stored. *)
val size : t -> int

val is_empty : t -> bool
