(** The protocol-generic SMR surface (the tentpole abstraction): one
    module type that {!Harness.Scenario.run}, the bench driver and the
    attack framework program against. Adapters for Lyra, Pompē and the
    plain chained-HotStuff baseline live next to it; a new baseline
    only has to satisfy {!NODE} to appear in every experiment (see
    docs/PROTOCOL.md, "adding a new baseline"). *)

(** One committed batch as the harness sees it: [key] identifies the
    batch across replicas (prefix-safety compares logs of keys with
    [String.equal]); [seq] is the protocol's decided sequence number;
    [output_at] the simulated output time in µs. *)
type committed = {
  key : string;
  txs : Lyra.Types.tx array;
  seq : int;
  output_at : int;
}

(** Uniform per-node counters. Protocols without a notion of rejection
    or decision rounds report [rejected = 0] / [decide_rounds = [||]]. *)
type stats = {
  accepted : int;  (** own proposals accepted (Lyra) / sequenced (others) *)
  rejected : int;  (** own proposals rejected by consensus *)
  decide_rounds : float array;  (** per-decision round numbers, in order *)
  mempool : int;  (** transactions waiting to be batched *)
  committed_seq : int;  (** newest committed sequence number / height *)
  late_accepts : int;  (** safety counter; must stay 0 *)
  phases : (string * float array) list;
      (** per-phase latency samples of own batches, ms, in pipeline
          order (see each protocol's [phases] accessor); the label set
          is protocol-specific but every protocol ends with [e2e] *)
}

(** Canonical log key of a batch instance (stable across protocols):
    ["proposer/index"], as [Printf.sprintf "%d/%d"] prints it. *)
val key_of_iid : Lyra.Types.iid -> string

(** A per-run memo of {!key_of_iid}. An adapter keeps one in its [net],
    so a batch's key is formatted once per run, not once per node per
    output, and every node's output of that batch shares the one
    string. Never module-global: runs stay independent. *)
type key_table

val key_table : unit -> key_table

(** [cached_key tbl iid] is [key_of_iid iid], formatted on the first
    call for [iid] and physically shared after. *)
val cached_key : key_table -> Lyra.Types.iid -> string

module type NODE = sig
  val name : string

  (** Warm-up the generic runner applies unless overridden. *)
  val default_warmup_us : int

  (** The protocol's network plus its resolved configuration. *)
  type net

  type t

  (** Build the protocol's {!Sim.Network} on [engine] with the regional
      latency model. [ns_per_byte] defaults to the simulator's line
      rate (≈ 1 Gb/s); the WAN harness passes its own. [faults]
      executes a {!Sim.Faults} plan on the transport (per-node clock
      skews are additionally applied by adapters that model local
      clocks); [adversary] attaches a pre-GST delay policy
      ({!Sim.Adversary}, default none). [perturb]
      adds deterministic extra wire delays ({!Sim.Perturb}) — the
      schedule-space explorer's lever; the default empty spec leaves
      the schedule bit-identical. [trace] and [dissemination] are
      vestigial and ignored: the arguments stay only for callers that
      still forward them until ROADMAP NODE step 3 removes them (see
      {!Sim.Network.trace} and {!Sim.Network.dissemination}). *)
  val make_net :
    Sim.Engine.t ->
    n:int ->
    jitter:float ->
    ?ns_per_byte:int ->
    ?faults:Sim.Faults.plan ->
    ?adversary:Sim.Adversary.t ->
    ?perturb:Sim.Perturb.t ->
    ?trace:Sim.Network.trace ->
    ?dissemination:Sim.Network.dissemination ->
    unit ->
    net

  (** Client payload size of the resolved configuration. *)
  val tx_size : net -> int

  val net_messages : net -> int

  val net_bytes : net -> int

  (** Messages dropped by the fault plan (loss windows + partitions). *)
  val net_dropped : net -> int

  (** Extra copies injected by duplication windows. *)
  val net_dup : net -> int

  (** Node [id]'s simulated processor / egress NIC, for the profiler. *)
  val net_cpu : net -> int -> Sim.Cpu.t

  val net_nic : net -> int -> Sim.Cpu.t

  (** Create and register node [id]. [on_observe] fires when a proposal
      first becomes readable at this node (the MEV observation point);
      [on_output] observes the committed log. *)
  val create :
    net ->
    id:int ->
    ?on_observe:(Lyra.Types.batch -> unit) ->
    on_output:(committed -> unit) ->
    unit ->
    t

  val start : t -> unit

  val submit : t -> payload:string -> string

  (** False for nodes the adapter made Byzantine; the harness excludes
      them from client load, logs and statistics. *)
  val honest : t -> bool

  val output_log : t -> committed list

  (** Per-output [(seq, low, high)] admissibility bounds, aligned with
      {!output_log}, for protocols whose decided sequence numbers carry
      a validity guarantee (Lyra's BOC-Validity, Def. 6: each decided
      seq stays within λ + clock offsets of the batch's creation time).
      Protocols whose seqs are plain heights return []. The explorer's
      seq-lower-bound oracle checks [low <= seq <= high]. *)
  val seq_bounds : t -> (int * int * int) list

  val stats : t -> stats
end
