(** Plain chained-HotStuff state-machine replication — the paper's
    "ordering phase removed" reference point (§VI).

    Clients submit to any replica; replicas gossip transaction batches
    to fill every mempool, and the round-robin HotStuff leader orders
    whatever it has pending. There is no separate ordering phase: no
    Pompē timestamp quorum, no Lyra leaderless agreement — the final
    order is whatever the current leader says, which is exactly what
    makes this baseline trivially reorderable (Fig. 1). *)

type config = {
  n : int;
  delta_us : int;  (** HotStuff view timer *)
  batch_size : int;  (** txs per gossiped batch *)
  batch_timeout_us : int;  (** flush a partial batch after this long *)
  block_capacity : int;  (** batches per HotStuff block *)
  tx_size : int;  (** client payload bytes *)
}

val default_config : n:int -> config

(** One committed batch: [seq] is the position in this replica's output
    log (contiguous from 0), [output_at] the simulated commit time. *)
type output = { batch : Lyra.Types.batch; seq : int; output_at : int }

type msg

(** Wire size in bytes, for {!Sim.Network.create}'s [size]. *)
val msg_size : msg -> int

(** CPU service time (µs) to process one message, for [cost]. *)
val msg_cost : Sim.Costs.t -> msg -> int

type t

(** [create config net ~id ?on_observe ?on_output ?censor ()] builds a
    replica and registers it on [net]. [on_observe] fires for every
    gossiped batch (the MEV observation point); [censor iid] makes this
    replica drop the batch instead of queuing it for its own blocks. *)
val create :
  config ->
  msg Sim.Network.t ->
  id:int ->
  ?on_observe:(Lyra.Types.batch -> unit) ->
  ?on_output:(output -> unit) ->
  ?censor:(Lyra.Types.iid -> bool) ->
  unit ->
  t

(** Launch the HotStuff replica (every node must be started). *)
val start : t -> unit

(** [submit t ~payload] accepts one client transaction into the local
    mempool and returns its id. *)
val submit : t -> payload:string -> string

(** Committed batches in commit order. *)
val output_log : t -> output list

(** Height of the highest committed HotStuff block. *)
val committed_height : t -> int

(** Batches proposed by this replica that have committed. *)
val own_committed : t -> int

(** Transactions waiting to be batched in the {!Lyra.Mempool}. *)
val mempool_size : t -> int

(** Per-phase latency breakdown of this replica's own batches (ms).
    HotStuff's pipeline is a single phase: [consensus] (Gossip →
    3-chain commit) equals [e2e]; both labels are reported so
    cross-protocol tables share the [e2e] column. *)
val phases : t -> Metrics.Phases.t
