(** Binary min-heap of timed events, the core of the discrete-event
    engine. Ties on the timestamp are broken by insertion order, so a
    simulation run is fully deterministic. *)

type 'a t

val create : unit -> 'a t

(** [push h ~time x] inserts [x] at [time]. *)
val push : 'a t -> time:int -> 'a -> unit

(** [pop h] removes and returns the earliest event, or [None] if empty. *)
val pop : 'a t -> (int * 'a) option

(** [peek_time h] is the earliest timestamp without removing it. *)
(* lint: allow S005 reference model that test_sim checks the timing wheel against *)
val peek_time : 'a t -> int option

(** [peek h] is the earliest event without removing it. *)
(* lint: allow S005 reference model that test_sim checks the timing wheel against *)
val peek : 'a t -> (int * 'a) option

(* lint: allow S005 reference model that test_sim checks the timing wheel against *)
val size : 'a t -> int

(* lint: allow S005 reference model that test_sim checks the timing wheel against *)
val is_empty : 'a t -> bool
