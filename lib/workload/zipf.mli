(** Zipf-distributed key sampling for hot-key workloads.

    Rank [i] (0-based) is drawn with probability proportional to
    [1 / (i+1)^s]; [s = 0] is uniform, [s ≈ 1] is the classic web/KV
    skew where a handful of keys absorb most of the traffic. *)

type t

(** [create ~n ~s] precomputes cumulative weights over [n] ranks with
    exponent [s ≥ 0]. Raises [Invalid_argument] on [n ≤ 0] or
    [s < 0]. *)
val create : n:int -> s:float -> t

(** [sample t rng] draws a rank in [\[0, n)] — O(log n), allocation
    free. *)
val sample : t -> Crypto.Rng.t -> int
