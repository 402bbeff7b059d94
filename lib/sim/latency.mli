(** Link-latency models.

    A model maps (src, dst) node pairs to a sampled one-way delay in
    microseconds. Sampling is explicit in an [Rng.t] so runs replay
    deterministically. *)

type t

(** [sample t rng ~src ~dst] draws a delay for one message. *)
val sample : t -> Crypto.Rng.t -> src:int -> dst:int -> int

(** Fixed delay for every link. *)
val constant : int -> t

(** Uniform in [\[lo, hi\]]. *)
val uniform : lo:int -> hi:int -> t

(** [regional regions] derives delays from the region of each endpoint
    (see {!Regions.one_way_us}), plus truncated-Gaussian jitter of
    relative width [jitter] (default 0.05), and at least 50 µs. *)
val regional : ?jitter:float -> Regions.t array -> t

(** [base_us t ~src ~dst] is the jitter-free base delay, used by nodes
    that reason about expected distances. *)
val base_us : t -> src:int -> dst:int -> int
