(** A Pompē node: ordering phase (2f+1 signed timestamps, median
    sequencing) in front of chained HotStuff, with stable in-order
    execution. The baseline of the paper's evaluation (§VI).

    Unlike Lyra, payloads travel in the clear from the very first
    broadcast — [on_observe] exposes exactly what an adversarial node
    sees, which the attack framework uses for Fig. 1 front-running. *)

type t

type output = { batch : Lyra.Types.batch; seq : int; output_at : int }

(** The stable-execution queue: committed [(seq, iid)] entries ordered
    by sequence number, ties broken by {!Lyra.Types.iid_compare}. A
    node executes its entries lowest first. *)
module Exec_queue : Set.S with type elt = int * Lyra.Types.iid

val create :
  Config.t ->
  Types.body Sim.Network.t ->
  id:int ->
  ?clock_offset_us:int ->
  ?on_observe:(Lyra.Types.batch -> unit) ->
  ?on_output:(output -> unit) ->
  ?censor:(Lyra.Types.iid -> bool) ->
  ?respond_ts:(Lyra.Types.batch -> honest:int -> int option) ->
  unit ->
  t

(** [respond_ts] (Byzantine behaviour): given an incoming batch and the
    honest timestamp this node would sign, return [Some ts'] to respond
    with [ts'] (possibly forged for its own batches) or [None] to
    withhold the response — the timestamp manipulation behind the
    Fig. 1 front-running attack. Default: honest. *)

(** [censor] (Byzantine leader behaviour): when this node leads a
    HotStuff view it omits commands matching the predicate — the
    censorship Lyra's leaderless design removes (§V-E). *)

val start : t -> unit

(** [submit t ~payload] enqueues a client transaction, returns its id. *)
val submit : t -> payload:string -> string

(** Committed-and-executed log, oldest first (in sequence order). *)
val output_log : t -> output list

val sequenced_count : t -> int

val committed_height : t -> int

(** Own batches abandoned in the ordering phase after exhausting
    Order_req retries (e.g. the cluster was partitioned away). *)
val order_giveups : t -> int

(** Own batches still in the ordering phase: neither sequenced nor
    given up. At most [max_inflight]. *)
val open_collects : t -> int (* lint: allow S005 bounded-state probe for test_pompe *)

(** Client transactions waiting in the {!Lyra.Mempool}. *)
val mempool_size : t -> int

(** Per-phase latency breakdown of this node's own batches (ms):
    [order] (Order_req → 2f+1 Ts_resps / Sequenced broadcast),
    [consensus] (Sequenced → HotStuff 3-chain commit), [stable_exec]
    (commit → stable-execution output — the wait that dominates
    Pompē's latency gap versus Lyra), [e2e] (propose → output). *)
val phases : t -> Metrics.Phases.t
