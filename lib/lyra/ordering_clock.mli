(** Per-process ordering clock (§II-D).

    Returns strictly monotonically increasing sequence numbers. Backed
    by the simulated real-time clock plus a fixed per-node offset — the
    paper assumes no synchronization between processes' clocks, and the
    distance estimates d_ij absorb the offsets (§IV-B1). Strict
    monotonicity is enforced by bumping repeated reads. *)

type t

(** [create engine ~offset_us] — a clock reading [Engine.now + offset],
    strictly increasing across reads. *)
val create : Sim.Engine.t -> offset_us:int -> t

(** Current sequence number (one tick is one microsecond). *)
val read : t -> int

(** The clock value an external observer would compute without bumping
    (used for validation comparisons, never for assigning). *)
val peek : t -> int
