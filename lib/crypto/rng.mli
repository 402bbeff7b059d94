(** Deterministic pseudo-random number generation (SplitMix64).

    Every source of randomness in the library flows through an explicit
    [Rng.t] so that simulations, experiments and property tests are
    reproducible from a single 64-bit seed. *)

type t

(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)
val create : int64 -> t

(** [copy t] duplicates the generator state; the copy evolves
    independently. *)
val copy : t -> t (* lint: allow S005 tests fork a stream to replay it *)

(** [split t] derives a statistically independent generator and advances
    [t]. Use it to give each simulated component its own stream. *)
val split : t -> t

(** Next raw 64-bit output. *)
val next_int64 : t -> int64 (* lint: allow S005 tests read the raw stream *)

(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)
val int : t -> int -> int

(** [int64_nonneg t] is uniform over non-negative 63-bit integers. *)
val int64_nonneg : t -> int

(** [bits53 t] is the top 53 bits of the next output, as a non-negative
    int: [float t] is [float_of_int (bits53 t) /. 2{^53}]. It allocates
    nothing, so a hot loop can scale it in place and keep its floats
    unboxed. *)
val bits53 : t -> int

(** [float t] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool (* lint: allow S005 tests draw random inputs with it *)

(** [gaussian t ~mu ~sigma] samples a normal variate (Box–Muller). *)
(* lint: allow S005 the reference model for Sim.Latency's inlined sampler *)
val gaussian : t -> mu:float -> sigma:float -> float

(** [exponential t ~mean] samples an exponential variate. *)
val exponential : t -> mean:float -> float

(** [bytes t n] is an [n]-byte random string. *)
val bytes : t -> int -> string

(** [shuffle t a] permutes [a] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit (* lint: allow S005 tests draw random inputs with it *)

(** [pick t l] is a uniformly random element of the non-empty list [l]. *)
val pick : t -> 'a list -> 'a (* lint: allow S005 tests draw random inputs with it *)
