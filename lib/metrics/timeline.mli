(** Time-bucketed accumulator: a growable array of buckets of fixed
    width (simulated µs), each summing the values charged to it. The
    profiler uses one per CPU/NIC to turn busy time into a utilization
    timeline; buckets never shrink and untouched buckets read 0. *)

type t

(** [create ~bucket_us ()] — bucket width in µs (default 100_000). *)
val create : ?bucket_us:int -> unit -> t

(** [add_range t ~from_us ~until_us v] spreads [v] over the interval
    proportionally to each bucket's overlap with it (an empty interval
    charges [v] to the bucket containing [from_us]). *)
val add_range : t -> from_us:int -> until_us:int -> float -> unit

(** Highest-valued bucket as [(index, value)]; [None] when empty. *)
val peak : t -> (int * float) option
