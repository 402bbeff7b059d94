(** P² streaming quantile estimation (Jain & Chlamtac, CACM 1985).

    One estimator tracks one quantile of an unbounded observation
    stream in O(1) memory: five markers whose heights are adjusted by
    piecewise-parabolic interpolation as observations arrive. Accuracy
    is excellent for smooth distributions and degrades gracefully for
    pathological ones; {!Recorder} uses a bank of these past its
    sample cap so latency percentiles stay bounded-memory at
    million-client scale. *)

type t

(** [create ~p] tracks the [p]-quantile, [p] in (0, 1) exclusive
    (e.g. 0.5 for the median). Raises [Invalid_argument] otherwise. *)
val create : p:float -> t

val add : t -> float -> unit

(** Current estimate. Exact (interpolated, matching
    {!Stats.percentile}) while fewer than five observations have been
    seen; 0.0 when empty. *)
val value : t -> float
