(** Open-loop workload engine: millions of modelled clients in O(1)
    state per stream.

    A {!stream_spec} models [clients] independent Poisson clients each
    submitting at [rate_per_client] tx/s. Their superposition is a
    single Poisson process at the aggregate rate, so the engine keeps
    one RNG and a few counters per stream — a million clients cost the
    same memory as ten. Time-varying {!shape}s (diurnal curves, flash
    crowds) are sampled exactly by thinning: candidates at the shape's
    peak rate, accepted with probability λ(t)/λmax.

    Latency is tracked per stream through a capped
    {!Metrics.Recorder.t} that switches itself to O(1) streaming (P²)
    mode past [latency_cap] samples, so an hour at 10⁶ tx/s does not
    accumulate an hour of floats.

    The MEV flow ({!mix} [Amm_swaps] + {!searcher_spec}) seeds
    arbitrage searchers that observe pending user swaps after a
    mempool delay and race them with a front-run/back-run pair. The
    protocol's ordering decides whether the race lands;
    {!mev_report} quantifies the outcome by replaying the committed
    sequence. *)

(** Rate multiplier over time ([t] = µs since {!start}).
    [Constant] — flat. [Diurnal] — sinusoid between [trough]×base and
    1×base with the given period and phase. [Flash_crowd] — flat until
    [at_us], linear ramp to [peak]×base over [ramp_us], then
    exponential decay back with time constant [decay_us]. *)
type shape =
  | Constant
  | Diurnal of { trough : float; period_us : int; phase_us : int }
  | Flash_crowd of { at_us : int; ramp_us : int; peak : float; decay_us : int }

(** What the stream submits. [Fixed] — opaque payloads of [size]
    bytes. [Kv] — KV-store commands over [keys] keys with Zipf([zipf])
    hot-key skew ([zipf = 0.] is uniform). [Amm_swaps] — user swaps
    (X→Y) with amounts uniform in [\[amount_min, amount_max\]]. *)
type mix =
  | Fixed of { size : int }
  | Kv of { keys : int; zipf : float }
  | Amm_swaps of { amount_min : int; amount_max : int }

type stream_spec = {
  name : string;
  clients : int;  (** modelled population; state stays O(1) in this *)
  rate_per_client : float;  (** tx/s per modelled client *)
  shape : shape;
  mix : mix;
}

type searcher_spec = {
  searchers : int;
  observe_delay_us : int;  (** mempool-observation lag before the front-run *)
  back_delay_us : int;  (** gap between front-run and back-run *)
  front_fraction : float;  (** front-run size as a fraction of the victim *)
  min_victim_amount : int;  (** ignore swaps too small to sandwich *)
}

type market = { reserve_x : int; reserve_y : int }

type spec = {
  streams : stream_spec list;
  market : market option;
  searcher : searcher_spec option;
}

(** Per-stream latency samples kept before a stream's recorder
    switches to streaming mode: 8192. *)
val latency_cap : int

(** The AMM pool of the MEV experiments: 50 M / 50 M reserves. *)
val default_market : market

(** The searcher of the MEV experiments: 3 ms observation lag, 2 ms
    front-to-back gap, half-size front-runs, victims of at least
    10 000. One searcher; set [searchers] per run. *)
val default_searcher : searcher_spec

(** Validating constructor. Raises [Invalid_argument] on non-positive
    populations/rates. *)
val spec :
  ?market:market ->
  ?searcher:searcher_spec ->
  stream_spec list ->
  spec

type t

(** [create engine spec ~nodes ~submit ()] — [submit ~node ~payload]
    injects a transaction at node [node ∈ \[0, nodes)] and returns its
    tx id (arrivals spread uniformly over nodes). *)
val create :
  Sim.Engine.t ->
  spec ->
  nodes:int ->
  submit:(node:int -> payload:string -> string) ->
  unit ->
  t

(** Start (or restart) all streams. Pending arrivals from an earlier
    life are invalidated: each arrival chain is tagged with the
    generation it belongs to, so a stop→start cycle never leaves a
    stale chain alive. *)
val start : t -> unit

val stop : t -> unit

(** [on_commit t ~tx_id ~payload ~now_us] — feed every committed
    transaction back (from any node; duplicate observations of the
    same tx are ignored). Records commit latency against the
    originating stream and advances the searchers' shadow pool. *)
val on_commit : t -> tx_id:string -> payload:string -> now_us:int -> unit

type stream_summary = {
  s_name : string;
  s_clients : int;
  s_submitted : int;
  s_committed : int;
  s_lat_mean_us : float;
  s_lat_p50_us : float;
  s_lat_p95_us : float;
  s_lat_p99_us : float;
  s_lat_max_us : float;
  s_streaming : bool;  (** latency recorder crossed its cap *)
}

val summaries : t -> stream_summary list

(** Latency recorder of stream [i] (declaration order). *)
val stream_recorder : t -> int -> Metrics.Recorder.t

val total_submitted : t -> int

val total_committed : t -> int

val searcher_submitted : t -> int

val searcher_committed : t -> int

(** Transactions submitted but not yet observed committed. *)
val pending_count : t -> int

type mev = {
  user_swaps : int;
  searcher_swaps : int;
  extracted_value_y : float;
      (** searchers' aggregate net position marked at the final pool
          price, in Y units; positive = value extracted *)
  victim_slippage_y : int;
      (** Σ over user swaps of (output in the searcher-free replay −
          actual output), clamped per-swap at 0 *)
  final_price_x_micro : int;
}

(** [mev_report t ~committed] replays the committed payload sequence
    (e.g. a node's output log, in order) through a fresh pool, with
    and without searcher transactions. [None] when the spec has no
    market. *)
val mev_report : t -> committed:string list -> mev option
