(** The experiment scenario driver: wire a cluster of SMR nodes of any
    {!Protocol.NODE} onto the simulated WAN, attach client load, run
    for a simulated duration and report the measurements the paper's
    figures plot.

    Placement follows §VI-A: nodes spread evenly across Oregon,
    Ireland and Sydney. Measurement excludes the warm-up window.
    Everything is deterministic in the seed. *)

type load =
  | Closed of int  (** closed-loop clients per node (§VI-A) *)
  | Open_rate of float  (** open-loop tx/s per node (saturation sweeps) *)

type result = {
  n : int;
  protocol : string;
  window_us : int;  (** measurement window *)
  committed_txs : int;  (** transactions output within the window *)
  throughput_tps : float;
  latency_ms : Metrics.Recorder.t;  (** per-tx submit → output, origin node *)
  decide_rounds : float;  (** mean decision round (0 when not applicable) *)
  accept_rate : float;  (** accepted / decided own proposals in-window *)
  messages : int;
  bytes : int;
  prefix_safe : bool;
      (** honest output logs are prefixes of each other, entry by
          entry in key and content digest ({!is_prefix} over
          [honest_logs]): one instance key committed with different
          transactions breaks it *)
  late_accepts : int;  (** safety counter; must be 0 *)
  dropped_msgs : int;  (** messages the fault plan dropped *)
  dup_msgs : int;  (** extra copies the fault plan injected *)
  stall_windows : (int * int) list;
      (** in-window periods with no cluster-wide commit progress *)
  first_violation : Invariant_monitor.violation option;
      (** first continuous-monitor violation; must be [None] *)
  phases : (string * Metrics.Recorder.t) list;
      (** per-phase latency breakdown (ms) of honest nodes' own
          batches within the measurement window, in pipeline order —
          the LAT3R anatomy (every protocol ends with [e2e]) *)
  profile : Sim.Profile.t option;
      (** present when [profile_bucket_us] was passed to {!run} *)
  honest_logs : (string * string) list array;
      (** per honest node, the committed log as (key, content digest)
          pairs, oldest first — the digest pins the batch's transaction
          contents so content-level divergence under one instance key
          is visible to [prefix_safe] and the explorer's oracles. Nodes
          that committed the same transactions under a key share one
          pair *)
  seq_bounds : (int * int * int) list array;
      (** per honest node, the adapter's per-output (seq, low, high)
          admissibility bounds ([] for height-based protocols) *)
  honest_ids : int array;
      (** node ids of the honest nodes, ascending — the index map for
          [honest_logs] and [seq_bounds] *)
  submitted_by : int array;
      (** per node id, transactions that node's clients submitted *)
  committed_own : int array;
      (** per node id, honest commit observations of transactions that
          node originated (cluster-wide, so each tx counts once per
          observing honest replica; the censorship oracle only asks
          whether it is zero) *)
  last_commit_us : int array;
      (** per node id, the simulated time that node's own committed log
          last advanced (−1 if never) — the per-victim liveness
          oracle's stall signal *)
  workload_streams : Workload.Engine.stream_summary list;
      (** when [?workload] was attached: per-stream submitted/committed
          counts (whole run) and commit-latency summary (measurement
          window only — recorders are cleared at the window boundary);
          [] otherwise *)
  mev : Workload.Engine.mev option;
      (** when the attached workload carries an AMM market: extracted
          value and victim slippage from replaying the longest honest
          log's committed order *)
  receive_logs : (string * int) list array;
      (** per honest node (index map [honest_ids]), the batches it
          first observed as [(key, first-seen µs)] in arrival order —
          the receive-order tap behind [fairness] *)
  fairness : Fairness.report option;
      (** receive-order fairness scored against the longest honest log
          (docs/FAIRNESS.md); [None] when no honest node committed
          anything *)
}

val pp_result : Format.formatter -> result -> unit

(** Plain-text table of the phase breakdown (samples, mean, p50, p95,
    p99 per phase). *)
val phase_table : result -> string

(** [run (module P) ~n ~load ~duration_us ()] — the one generic driver:
    protocol choice is the adapter module (see {!Protocol.Registry} and
    the [?tweak]/[?byz]/[?censor] knobs on the adapter constructors).
    [warmup_us] defaults to the protocol's [default_warmup_us]; links
    carry a fixed relative jitter of 0.01. [faults] executes a
    {!Sim.Faults} plan on the run; [adversary] attaches a pre-GST delay
    policy ({!Sim.Adversary}); an {!Invariant_monitor} always observes
    honest commits continuously, and its verdict lands in
    [first_violation]/[stall_windows]. [profile_bucket_us] attaches a
    {!Sim.Profile} to the run (opt-in: sampling adds engine events,
    though never changes protocol behaviour); it lands in [profile].
    [perturb]
    injects deterministic extra wire delays ({!Sim.Perturb}) — the
    schedule-space explorer's lever; omitted or empty, the run is
    bit-identical to an unperturbed one. [workload] attaches an
    open-loop {!Workload.Engine} alongside [load] (use
    [load = Closed 0] for workload-only runs): its streams start with
    the per-node clients, spread arrivals over honest entry points,
    and report through [workload_streams]/[mev]. *)
val run :
  ?seed:int64 ->
  ?warmup_us:int ->
  ?ns_per_byte:int ->
  ?faults:Sim.Faults.plan ->
  ?adversary:Sim.Adversary.t ->
  ?perturb:Sim.Perturb.t ->
  ?profile_bucket_us:int ->
  ?workload:Workload.Engine.spec ->
  (module Protocol.NODE) ->
  n:int ->
  load:load ->
  duration_us:int ->
  unit ->
  result

(** [content_digests logs] pairs each committed entry with its
    content digest: the Merkle root of its ["tx_id:payload"] strings,
    as in [result.honest_logs]. Entries that share a key and carry
    the same transactions are hashed once and share one pair. *)
(* lint: allow S005 tests hand-build honest logs to drive the prefix-agreement oracle *)
val content_digests :
  Protocol.committed list array -> (string * string) list array

(** [is_prefix a b]: the (key, digest) log [a] is a prefix of [b],
    entry by entry equal in both key and digest. *)
val is_prefix : (string * string) list -> (string * string) list -> bool

(** Index of the first longest log of a non-empty array. *)
val longest : 'a list array -> int
