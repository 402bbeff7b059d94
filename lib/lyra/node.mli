(** A full Lyra SMR node (§V): mempool and batching, the BOC protocol
    for ordering (Alg. 2/3), the Commit protocol for output (Alg. 4),
    and the commit-reveal of obfuscated payloads.

    Lifecycle: {!create} every node of the cluster on a shared
    {!Sim.Network}, then {!start} them. Clients inject load with
    {!submit}; committed, revealed batches surface through the
    [on_output] callback in a total order that is identical (prefix-
    wise) across correct nodes (SMR-Safety). *)

type t

type output = {
  batch : Types.batch;
  seq : int;  (** decided sequence number *)
  output_at : int;  (** simulated µs when revealed and executed *)
}

(** [create config net ~id ()] — [keys]/[dir] are required when
    [config.real_crypto] is set; [clock_offset_us] models this node's
    unsynchronized clock; [misbehavior] turns the node Byzantine; [on_observe] fires when a
    proposal first arrives — what a Byzantine operator of this node
    could inspect (use {!Types.observable_txs} to read it; under
    commit-reveal it yields nothing);
    [on_output] observes the committed log (execution layer). *)
val create :
  Config.t ->
  Types.msg Sim.Network.t ->
  id:int ->
  ?keys:Crypto.Keys.keypair ->
  ?dir:Crypto.Keys.directory ->
  ?clock_offset_us:int ->
  ?misbehavior:Misbehavior.t ->
  ?on_observe:(Types.batch -> unit) ->
  ?on_output:(output -> unit) ->
  unit ->
  t

(** Begin the warm-up (distance measurement, §IV-B1), heartbeats and
    batching loops. *)
val start : t -> unit

(** The configuration the node was created with. *)
val config : t -> Config.t

(** [submit t ~payload] enqueues one client transaction; returns its
    id. The transaction records submission time and origin for latency
    accounting. *)
val submit : t -> payload:string -> string

(** The committed, revealed output log, oldest first. *)
val output_log : t -> output list

(** (instance, seq) pairs accepted by BOC so far (committed or not). *)
val accepted_count : t -> int (* lint: allow S005 node state probe for test_lyra_cluster *)

val committed_seq : t -> int

val pending_count : t -> int (* lint: allow S005 bounded-state probe for test_lyra_cluster *)

(** Client transactions waiting in the {!Mempool}. *)
val mempool_size : t -> int

(** Decisions that arrived after their prefix was already committed —
    must stay 0 for SMR-Safety (watched by the test suite). *)
val late_accepts : t -> int

(** Outputs learned through a committed-log sync (crash recovery /
    lossy-link repair) rather than a local commit. 0 on healthy runs. *)
val synced_entries : t -> int (* lint: allow S005 recovery probe for test_faults *)

(** Sync pulls initiated. 0 on healthy runs. *)
val syncs_started : t -> int (* lint: allow S005 recovery probe for test_faults *)

(** Per-decision round numbers (1 = optimal good case). *)
val decide_rounds : t -> Metrics.Recorder.t

(** Per-phase latency breakdown of this node's own batches (ms):
    [vvb_deliver] (propose → VVB delivers (1, m)), [dbft_decide]
    (deliver → DBFT decides 1), [boc_decide] (propose → decide, the
    paper's 3-message-delay good case), [accept_wait] (decide → taken
    committable / Reveal broadcast), [reveal] (Reveal → emit), [e2e]
    (propose → emit). *)
val phases : t -> Metrics.Phases.t

(** Own proposals: how many were accepted / rejected by consensus. *)
val own_accepted : t -> int

val own_rejected : t -> int

(** Distances known to the predictor (n after warm-up). *)
val distances_known : t -> int
