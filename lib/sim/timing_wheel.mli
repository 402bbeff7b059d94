(** Hierarchical timing wheel (4 levels x 256 slots, 1 µs ticks) with a
    calendar-style overflow list for timers past the ~71-minute horizon.
    Replaced {!Event_heap} in {!Engine}: the identical (time,
    insertion-seq) total order, at O(1) amortized push/pop instead of
    O(log n).

    Contract: [push ~time] requires [time] to be no earlier than the
    timestamp of the most recently popped entry (the engine's clock
    monotonicity already guarantees this). *)

type 'a t

(** A stored entry. It is also the handle {!add} returns: {!cancel}
    takes it out of the order in O(1). [kind] is an opaque tag the
    wheel never interprets (the engine's event taxonomy). *)
type 'a entry = private {
  time : int;
  kind : int;
  payload : 'a;
  mutable live : bool;  (** stored and not cancelled *)
  owner : 'a t;
}

val create : unit -> 'a t

(** [add w ~time ~kind x] inserts [x] at [time] and returns its entry. *)
val add : 'a t -> time:int -> kind:int -> 'a -> 'a entry

(** [push w ~time x] is {!add} with kind 0, discarding the handle. *)
val push : 'a t -> time:int -> 'a -> unit

(** [cancel e] removes [e] from the order; idempotent, and a no-op once
    [e] has been taken. The entry is discarded lazily, when it reaches
    the head. *)
val cancel : 'a entry -> unit

(** [head_time w] is the timestamp of the earliest live entry, or
    [max_int] if there is none. Discards cancelled entries at the head;
    allocates nothing. *)
val head_time : 'a t -> int

(** [take w] removes and returns the earliest live entry. Allocates
    nothing.
    @raise Invalid_argument if [w] holds no live entry. *)
val take : 'a t -> 'a entry

(** [pop w] removes and returns the earliest live event, or [None] if
    empty. Ties on the timestamp are broken by insertion order. *)
val pop : 'a t -> (int * 'a) option

(** [peek_time w] is the earliest live timestamp without removing it. *)
(* lint: allow S005 test_sim checks the wheel against the heap model *)
val peek_time : 'a t -> int option

(** [peek w] is the earliest live event without removing it. *)
(* lint: allow S005 test_sim checks the wheel against the heap model *)
val peek : 'a t -> (int * 'a) option

(** Live (not cancelled, not yet taken) entries. *)
val size : 'a t -> int

val is_empty : 'a t -> bool
