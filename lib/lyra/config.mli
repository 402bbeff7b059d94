(** Protocol and experiment parameters (paper §VI-B defaults). *)

type t = {
  n : int;  (** number of processes *)
  lambda_us : int;  (** security parameter λ (default 5 ms, §VI-B) *)
  delta_us : int;  (** post-GST message-delay bound Δ *)
  batch_size : int;  (** transactions per BOC instance (default 800) *)
  batch_timeout_us : int;  (** propose a partial batch after this long *)
  max_inflight : int;  (** cap on a node's undecided own proposals *)
  status_interval_us : int;  (** heartbeat period for commit gossip *)
  warmup_proposals : int;  (** distance-measurement proposals (§IV-B1) *)
  real_crypto : bool;  (** run signatures/VSS for real, or charge costs only *)
  vss_scheme : Crypto.Vss.scheme;  (** payload obfuscation scheme *)
  tx_size : int;  (** bytes per transaction payload (32 in the paper) *)
  clock_offset_max_us : int;  (** spread of unsynchronized node clocks *)
  retransmit_after_us : int;
      (** instances still undecided after this long get a periodic
          [Nudge] + state rebroadcast (lossy-link repair) *)
  retransmit_interval_us : int;  (** sweep period for the above *)
  skip_window_check : bool;
      (** DELIBERATELY UNSOUND (default false): drop the acceptance
          window check of Alg. 4 line 52, the guard ordering
          linearizability rests on. Exists solely so the schedule-space
          explorer can prove its oracles catch a protocol broken in
          exactly the way the paper defends against; never enable it in
          an experiment *)
}

(** [default ~n] — paper defaults: λ = 5 ms, Δ = 160 ms, batch 800. *)
val default : n:int -> t

(** {2 Fixed protocol constants} *)

(** Spacing of the distance-measurement proposals (§IV-B1): 120 ms. *)
val warmup_spacing_us : int

(** Smoothing of the distance estimates d_ij: 0.3. *)
val ewma_alpha : float

(** Requested seqs this far in the future are rejected (§VI-D
    memory-exhaustion mitigation): 1 s. *)
val future_bound_us : int

(** Lag (vs the f+1-th highest peer output count) with no local
    progress for this long triggers an output-log sync pull: 1 s,
    generous enough that healthy commit gaps never trip it. *)
val sync_patience_us : int

(** Max entries per [Sync_resp]: 64. *)
val sync_batch : int

(** A node that has not heard from a quorum within this window (250 ms)
    was cut off (crash or minority partition); it enters a probation in
    which any observed lag starts a sync pull immediately, before a
    stale commit boundary can emit out-of-order. Healthy heartbeats
    arrive every 25 ms, so this never trips on a live cluster. *)
val isolation_gap_us : int

(** Maximum BOC latency L = 3Δ (Alg. 4 line 52), the acceptance
    window. *)
val l_us : t -> int

(** f = ⌊(n − 1)/3⌋ and quorum sizes for this configuration. *)
val f : t -> int

val quorum : t -> int

val supermajority : t -> int
