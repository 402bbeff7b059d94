(** One Byzantine-Ordered-Consensus instance: the Validating Value
    Broadcast (Alg. 1) composed with the modified DBFT binary consensus
    (Alg. 3).

    The instance is a reactive state machine. The broadcaster's
    ordered-propose (Alg. 2) is just a broadcast of the INIT message;
    every process (the broadcaster included, via self-delivery) then
    drives its local instance from incoming messages:

    - INIT(m, σ) — round 1's validating broadcast. The receiver checks
      the signature, runs the validation function (sequence-number
      prediction check plus acceptance window, Alg. 4 line 62) and
      votes 1 (with a threshold-signature share over the proposal
      digest and its perceived sequence number) or 0.
    - VOTE(1, π) ⋅ n−f ⇒ combine shares, broadcast DELIVER, deliver
      (1, m); VOTE(0) ⋅ f+1 ⇒ relay 0; ⋅ n−f ⇒ deliver (0, ⊥);
      expiry timer E = 2Δ forces a 0-vote when nothing delivers.
    - EST/COORD/AUX drive DBFT's rounds ({!Dbft.Rounds}), whose round 1
      takes its bin_values from the VVB deliveries above.

    Good case (correct broadcaster, after GST): INIT → VOTE → AUX,
    decide 1 in round 1 after exactly 3 message delays (Theorem 3). *)

(** A node's services to its instances, built once per node and shared
    by all of them; the functions about one instance take its iid. *)
type env = {
  self : int;
  n : int;
  f : int;
  delta_us : int;
  clock_read : unit -> int;  (** ordering clock *)
  validate : Types.proposal -> seq_obs:int -> bool;
      (** validation function; the node also books pending state here *)
  verify_init :
    Types.iid -> Types.proposal -> Crypto.Schnorr.signature option -> bool;
  verify_vote_share :
    digest:string -> src:int -> Crypto.Threshold.share option -> bool;
  make_vote_share : digest:string -> Crypto.Threshold.share option;
  make_deliver_proof :
    digest:string ->
    Crypto.Threshold.share list ->
    Crypto.Threshold.combined option;
  check_deliver :
    Types.proposal -> Crypto.Threshold.combined option -> bool;
  broadcast : Types.body -> unit;
  schedule : delay_us:int -> (unit -> unit) -> unit;
  observe_vote : Types.iid -> src:int -> seq_obs:int -> unit;
      (** distance measurement hook (only meaningful at the proposer) *)
  on_vvb_deliver : Types.iid -> unit;
      (** fires when this process first delivers (1, m) — the
          VVB→DBFT boundary of the phase breakdown *)
  on_decide :
    Types.iid -> value:int -> round:int -> Types.proposal option -> unit;
}

type t

(** [create env iid ~created_at]: [created_at] is the engine time of
    the node's first contact with the instance. *)
val create : env -> Types.iid -> created_at:int -> t

(** [revive env iid ~created_at ~value ~decision_round ~round proposal]
    rebuilds an instance that decided [value] in [decision_round] and
    defers help round [round] ({!Dbft.Rounds.deferred}), for a node that
    freed it: it answers the rounds as the freed one would have. Its VVB
    is over: INIT, votes and DELIVER only report the vote's distance
    sample ([observe_vote]). [proposal] is the decided one when [value]
    is 1; help-round ESTs of 1 carry it. *)
val revive :
  env ->
  Types.iid ->
  created_at:int ->
  value:int ->
  decision_round:int ->
  round:int ->
  Types.proposal option ->
  t

(** Message entry points, dispatched by the node. *)

val on_init :
  t ->
  src:int ->
  Types.proposal ->
  Crypto.Schnorr.signature option ->
  unit

val on_vote : t -> src:int -> Types.vote -> unit

val on_deliver :
  t -> src:int -> Types.proposal -> Crypto.Threshold.combined option -> unit

val on_est :
  t -> src:int -> round:int -> value:int -> Types.proposal option -> unit

val on_coord : t -> src:int -> round:int -> value:int -> unit

val on_aux : t -> src:int -> round:int -> values:int list -> unit

(** Introspection. *)

val decided : t -> int option

val decision_round : t -> int option

val proposal : t -> Types.proposal option

(** {!Types.requested_seq} of {!proposal}, computed once each time the
    proposal is set or replaced; [None] without a proposal. *)
val requested_seq : t -> int option

(** Perceived sequence number of this instance at this node, once
    known. *)
val seq_obs : t -> int option (* lint: allow S005 instance probe for test_vvb *)

val halted : t -> bool

(** {!Dbft.Rounds.idle} of the instance's rounds. *)
val idle : t -> int option

val created_at : t -> int

(** Lossy-link repair. *)

(** [poke t] re-broadcasts every message this process already
    contributed (round-1 vote, DELIVER certificate, current-round
    EST/COORD/AUX). Receivers deduplicate by sender, so this is
    idempotent; it only has an effect on peers whose first copy was
    dropped. No-op once decided-and-halted. *)
val poke : t -> unit

(** [force_decide t ~value proposal] adopts a decision learned out of
    band (f+1 Decided notices, or a committed-log sync). Fires
    [on_decide] exactly once; no-op if already decided. *)
val force_decide : t -> value:int -> Types.proposal option -> unit
