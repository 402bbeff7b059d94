(** Core vocabulary of the Lyra protocol: instance identifiers,
    transactions, batches, piggybacked status, and the wire messages.

    Notation follows Table I of the paper: a transaction [t] is
    obfuscated into a cipher [c_t]; a broadcaster proposes
    (c_t, S_t) where S_t are the predicted perceived sequence numbers;
    the requested (decided, if accepted) sequence number is the
    (n − f)-th smallest value of S_t. *)

(** Identifier of a BOC instance: the [index]-th proposal of
    [proposer]. *)
type iid = { proposer : int; index : int }

val iid_compare : iid -> iid -> int

val iid_equal : iid -> iid -> bool

val pp_iid : Format.formatter -> iid -> unit

(** A canonical non-negative integer hash of an [iid]. *)
val iid_hash : iid -> int

(** [iid_key ~n iid] is [index * n + proposer]: distinct iids whose
    proposers lie in [0, n) get distinct non-negative keys. A run's
    keys are dense, which suits {!Int_tbl}'s identity hash. *)
val iid_key : n:int -> iid -> int

(** Hash tables keyed by [iid] and by [int], hashing with {!iid_hash}
    and the identity: a lookup runs no polymorphic hash or compare.
    Like every hash table in protocol code they are probed and
    updated, never traversed (lint rule D001). *)
module Iid_tbl : Hashtbl.S with type key = iid

module Int_tbl : Hashtbl.S with type key = int

(** Ordered map and set keyed by [iid] under {!iid_compare}: their
    traversals run in key order. *)
module Iid_map : Map.S with type key = iid

module Iid_set : Set.S with type elt = iid

(** A client transaction. [payload] is the 32-byte value of the paper's
    workload; [submitted_at]/[origin] support latency accounting. *)
type tx = {
  tx_id : string;
  payload : string;
  submitted_at : int;
  origin : int;
}

(** How a batch payload is obfuscated in flight (DESIGN.md §1):
    [Clear] — no commit-reveal (used by the Pompē baseline and attack
    demos); [Vss] — real verifiable secret sharing; [Structural] —
    commit-reveal discipline without running the cipher (the CPU cost
    is still charged; used by the large-scale experiments). *)
type obfuscation =
  | Clear
  | Vss of Crypto.Vss.cipher
  | Structural

type batch = {
  iid : iid;
  txs : tx array;
  obf : obfuscation;
  created_at : int;  (** broadcaster clock when proposed (s_ref) *)
}

(** What a Byzantine observer can read out of a batch in flight: the
    transactions when the payload is [Clear], nothing under
    commit-reveal. The attack framework goes through this accessor
    exclusively, which is how the simulator enforces the obfuscation
    discipline without running the cipher on every batch. *)
val observable_txs : batch -> tx array option

(** The proposal travelling through one BOC instance: the cipher and
    the predicted sequence numbers (None = blank, §IV-B1), plus their
    digest. The type is private so that {!proposal} is the only way to
    build one: the digest always matches the contents it was computed
    from. [st] must not be mutated afterwards. *)
type proposal = private { batch : batch; st : int option array; digest : string }

(** [proposal batch st] hashes the proposal once. The digest covers the
    instance id, [created_at], the tx ids (the cipher's {!Crypto.Vss.tag}
    under [Vss]) and [st]. *)
val proposal : batch -> int option array -> proposal

(** Digest identifying a proposal; VVB votes refer to it so that an
    equivocating broadcaster cannot aggregate votes across different
    proposals. Computed once, by {!proposal}. *)
val proposal_digest : proposal -> string

(** Requested sequence number: the (n − f)-th smallest value of S_t
    (blanks sort last). [None] if fewer than n − f predictions, or if
    [st] does not have length [n]. Requires [f < n]. *)
val requested_seq : n:int -> f:int -> int option array -> int option

(** Commit-protocol state piggybacked on every message (Alg. 4
    lines 74–78). *)
type status = {
  locked_upto : int;  (** local acceptance-window bound seq_i − L *)
  min_pending : int;  (** lowest pending requested seq; [no_pending] if none *)
  committed : int;
      (** log length: the entries taken into the sender's commit order,
          revealed or not. A peer that missed an entry sees that it is
          behind before it emits past the entry, and a syncing peer
          takes its goal from these claims *)
  accepted_recent : (iid * int) list;
      (** accepted, not yet taken (instance, seq) pairs; heartbeats
          only *)
}

(** Sentinel for "no pending transaction" (sorts above every seq). *)
val no_pending : int

(** VVB votes (Alg. 1). [Vote_one] carries a threshold-signature share
    over the proposal digest (when real crypto is on) and the voter's
    perceived sequence number, piggybacked for distance estimation
    (§VI-B). *)
type vote =
  | Vote_one of {
      digest : string;
      share : Crypto.Threshold.share option;
      seq_obs : int;
    }
  | Vote_zero of { seq_obs : int }

type body =
  | Init of {
      proposal : proposal;
      share : Crypto.Vss.decryption_share option;  (** recipient's key share *)
      sigma : Crypto.Schnorr.signature option;
    }
  | Vote of { iid : iid; vote : vote }
  | Deliver of {
      iid : iid;
      proposal : proposal;
      proof : Crypto.Threshold.combined option;
    }
  | Est of { iid : iid; round : int; value : int; proposal : proposal option }
  | Coord of { iid : iid; round : int; value : int }
  | Aux of { iid : iid; round : int; values : int list }
  | Reveal of { iid : iid; share : Crypto.Vss.decryption_share option }
  | Heartbeat
  | Nudge of { iid : iid }
      (** retransmission pull: the sender is stuck undecided on [iid]
          after losing messages; receivers re-send what they hold *)
  | Decided of { iid : iid; value : int; proposal : proposal option }
      (** decision notice answering a [Nudge]; adopted only once f + 1
          distinct senders agree, so Byzantine notices cannot forge a
          decision *)
  | Sync_req of { from_count : int }
      (** pull committed outputs starting at log index [from_count]
          (crash recovery / lossy-link repair) *)
  | Sync_resp of {
      from_count : int;
      upto : int;
      entries : (batch * int) list;
      tail : (iid * int) list;
    }
      (** contiguous (batch, seq) slice of the responder's emitted log
          from [from_count]; [upto] is the responder's emitted count.
          [tail] lists the entries it has taken but not yet emitted:
          the receiver treats them as gossip claims *)

type msg = { status : status; body : body }

(** Wire size in bytes (NIC model). Batch payloads count in [Init];
    other messages carry references/digests as a real implementation
    would. *)
val msg_size : msg -> int

(** CPU service cost (µs) of processing a message at a node, from the
    cost table. This encodes Lyra's O(1)-verifications-per-message
    property: only [Init] pays a signature verification; votes are
    MAC-authenticated channel traffic. *)
val msg_cost : Sim.Costs.t -> msg -> int
