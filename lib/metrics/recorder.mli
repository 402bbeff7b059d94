(** Append-only sample recorder (e.g. per-transaction commit latency).

    Cheap to record into during a simulation; summaries are computed
    on demand.

    Two regimes. {b Exact} (the default): every sample is retained and
    quantiles are computed by sorting — unchanged semantics for every
    [create ()] caller. {b Streaming}: a recorder created with a
    finite [?cap] automatically converts itself when the cap-th sample
    arrives — retained samples seed a bank of {!P2} quantile
    estimators (p50/p90/p95/p99) plus exact count/mean/min/max, the
    sample array is released, and memory stays O(1) from then on. The
    open-loop workload engine records million-client latency streams
    through this without unbounded growth. *)

type t

(** [create ?cap ()] — [cap] (default: unbounded) is the number of
    retained samples past which the recorder switches to streaming
    mode. Raises [Invalid_argument] when [cap < 8]. A fresh recorder
    holds no sample array; the first {!record} allocates one. *)
val create : ?cap:int -> unit -> t

(** True once the recorder has crossed its cap and dropped its raw
    samples. *)
val is_streaming : t -> bool

(** Raw samples currently held in memory: the sample count in exact
    mode, 0 in streaming mode (only O(1) marker state remains). *)
val retained_samples : t -> int

val record : t -> float -> unit

(** Total samples recorded (both modes). *)
val count : t -> int

val is_empty : t -> bool

(** Raw-sample snapshots; exact mode only. In streaming mode the
    samples are gone — both raise [Invalid_argument]. *)
val to_array : t -> float array

(** Sorted (ascending) snapshot — take one and report any number of
    quantiles through {!Stats.percentile_sorted} without re-sorting.
    Exact mode only (see {!to_array}). *)
val sorted : t -> float array

(** Exact in both modes (streaming keeps a running sum). *)
val mean : t -> float

(** Exact-mode percentiles interpolate over the full sample set. In
    streaming mode the estimate snaps to the nearest of the tracked
    quantiles {50, 90, 95, 99} — with p = 0 and p = 100 answered
    exactly from the running min/max. *)
val percentile : float -> t -> float

(** (mean, p50, p95, p99, max) — one sorted snapshot in exact mode, P²
    estimates (exact mean/max) in streaming mode. All-zero when the
    recorder is empty. *)
val summary : t -> float * float * float * float * float

(** [clear t] discards everything recorded so far (e.g. warm-up) and
    returns the recorder to exact mode. *)
val clear : t -> unit
