(** Wire types of the Pompē baseline (Zhang et al. [32], as described
    in §I and §VI of the Lyra paper).

    Pompē runs in two phases. In the *ordering* phase a node broadcasts
    its batch, every process returns a signed timestamp, and the median
    of 2f + 1 timestamps becomes the batch's sequence number, justified
    by the signature set. In the *consensus* phase the sequenced
    batches go through leader-based HotStuff; blocks carry the
    timestamp justifications, which is why block bytes grow as
    O(n · batch) and every replica performs O(n) signature
    verifications per batch — the scalability ceiling of Fig. 3.

    Batches reuse {!Lyra.Types.batch} with [Clear] payloads: Pompē has
    no commit-reveal, so payloads are observable on first broadcast
    (the Fig. 1 attack surface). *)

(** A sequenced batch reference flowing through HotStuff. *)
type cmd = {
  c_iid : Lyra.Types.iid;
  c_seq : int;
  c_proof_count : int;  (** 2f+1 timestamp signatures carried along *)
}

(** The block-id name of a command (["proposer.index"]). *)
val cmd_id : cmd -> string

val cmd_size : cmd -> int (* lint: allow S005 test_pompe pins the wire-size model *)

(** One node's timestamp for a batch. The signature it stands for is
    modelled by the cost model ({!msg_cost}) and the wire sizes, not
    carried. *)
type timestamp_proof = { signer : int; ts : int }

type body =
  | Order_req of { batch : Lyra.Types.batch }
  | Ts_resp of { iid : Lyra.Types.iid; ts : int }
  | Sequenced of {
      iid : Lyra.Types.iid;
      seq : int;
      proofs : timestamp_proof list;
    }
  | Order_fetch of { iid : Lyra.Types.iid }
      (** pull-based payload recovery: ask the proposer to re-send an
          [Order_req] whose payload a lossy link swallowed *)
  | Hs of cmd Hotstuff.Replica.msg

val msg_size : body -> int

(** CPU cost: [Sequenced] is charged a light admission check; the full
    2f+1 timestamp verification is charged when the batch appears in a
    HotStuff proposal (verify-on-consensus), and the leader pays one
    signature verification per vote. *)
val msg_cost : Sim.Costs.t -> body -> int
