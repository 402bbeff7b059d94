(** Small numeric summaries used throughout the experiment reports. *)

val mean : float array -> float

(** [percentile p xs] for p in [\[0, 100\]] with linear interpolation;
    [xs] need not be sorted. 0.0 on empty input (matching the empty
    {!summary_sorted}); raises [Invalid_argument] only when [p] is out of
    range. *)
val percentile : float -> float array -> float

(** [percentile_sorted p xs] — same, but [xs] must already be sorted
    ascending; no copy, no sort. Callers reporting several quantiles
    should sort once (e.g. [Recorder.sorted]) and funnel through this. *)
val percentile_sorted : float -> float array -> float

val min_max : float array -> float * float

(** [summary_sorted xs] is (mean, p50, p95, p99, max) of an
    already-sorted array. The empty summary is well-defined: all-zero,
    so callers need no emptiness guard. *)
val summary_sorted : float array -> float * float * float * float * float
