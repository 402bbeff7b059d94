(** Prediction of perceived sequence numbers (§IV-B1).

    A broadcaster p_i stores s_ref = seq_i(t) when it proposes t; every
    voter p_j piggybacks its perceived sequence number seq_j(t) in its
    VVB vote, which lets p_i learn the distance
    d_ij = seq_j(t) − s_ref (network latency plus clock offset).
    Distances are smoothed with an EWMA. When proposing a new
    transaction, S_t = { s_ref + d_ij } — entries for processes whose
    distance is still unknown are blank. *)

type t

(** [create ~n ~alpha ()] — distances start unknown (blank). d_ii is
    fixed at 0 (self-delivery is immediate). *)
val create : n:int -> alpha:float -> self:int -> t

(** [observe t ~peer ~s_ref ~seq_obs] folds one measurement
    d = seq_obs − s_ref into the estimate for [peer]. Wildly negative
    measurements (a lying clock) are clamped at 0. *)
val observe : t -> peer:int -> s_ref:int -> seq_obs:int -> unit

(** [predict t ~s_ref] is S_t (Some per known distance, None = blank). *)
val predict : t -> s_ref:int -> int option array

(** Current distance estimate to a peer, if any measurement arrived. *)
(* lint: allow S005 estimator probe for test_lyra_units *)
val distance : t -> peer:int -> int option

(** Number of peers with a known distance. *)
val known_count : t -> int
