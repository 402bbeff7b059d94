(** Binary min-heap of timed events, the engine's scheduler before
    {!Sim.Timing_wheel}: SIMSPEED's comparison scheduler and, read from
    this file by [test/dune], test_sim's oracle for the wheel. Ties on
    the timestamp are broken by insertion order. *)

type 'a t

val create : unit -> 'a t

(** [push h ~time x] inserts [x] at [time]. *)
val push : 'a t -> time:int -> 'a -> unit

(** [pop h] removes and returns the earliest event, or [None] if empty. *)
val pop : 'a t -> (int * 'a) option

(** [peek_time h] is the earliest timestamp without removing it. *)
val peek_time : 'a t -> int option

val size : 'a t -> int

val is_empty : 'a t -> bool
