(** Deterministic fault plans: a declarative schedule of transport and
    process faults executed by {!Network} and observed by the harness.

    A plan is pure data — *when* and *where* faults apply — and contains
    no randomness of its own. The only nondeterminism (whether a given
    message falls inside a drop probability) is drawn from a dedicated
    stream split off the engine RNG at network creation, so runs remain
    bit-for-bit reproducible in the seed and a fault-free plan leaves
    the event sequence untouched.

    Plans are built pipeline-style:
    {[
      Sim.Faults.(
        none
        |> crash ~node:2 ~at_us:600_000 ~recover_us:1_400_000
        |> loss ~from_us:300_000 ~until_us:900_000 ~drop_p:0.01
        |> partition ~from_us:1_000_000 ~heal_us:1_600_000 ~island:[ 0; 3 ])
    ]} *)

type loss_window = {
  l_from_us : int;
  l_until_us : int;  (** exclusive *)
  l_src : int option;  (** [None] = any sender *)
  l_dst : int option;  (** [None] = any receiver *)
  l_drop_p : float;
  l_dup_p : float;
}

type partition = {
  p_from_us : int;
  p_heal_us : int;  (** exclusive: traffic flows again at [p_heal_us] *)
  p_island : int list;  (** one side of the cut; the rest is the other *)
}

type crash = {
  c_node : int;
  c_at_us : int;
  c_recover_us : int option;  (** [None] = fail-stop forever *)
}

(** A targeted eclipse: during the window, every link between the
    victim and a peer in [e_owned] is claimed by the adversary —
    messages in either direction are dropped ([e_delay_us = None]) or
    delayed by a fixed amount ([Some d]). Links to peers outside
    [e_owned] keep flowing; [e_diverse] names the netgroup-diverse
    links the adversary can never claim (the defense knob — validation
    rejects a plan that owns a diverse link). Self-delivery never
    touches the wire and is immune, as with every transport fault. *)
type eclipse = {
  e_victim : int;
  e_from_us : int;
  e_until_us : int;  (** exclusive *)
  e_owned : int list;  (** peers whose link to the victim is claimed *)
  e_diverse : int list;  (** declared unclaimable links (must be disjoint) *)
  e_delay_us : int option;  (** [None] = cut; [Some d] = delay by d µs *)
}

(** BGP-hijack-style delay inflation: during the window, every message
    between the two (disjoint) endpoint sets pays [d_extra_us] extra
    one-way latency — the detour through the hijacker's route. *)
type delay_inflate = {
  d_from_us : int;
  d_until_us : int;  (** exclusive *)
  d_a : int list;
  d_b : int list;
  d_extra_us : int;
}

type plan = {
  losses : loss_window list;
  partitions : partition list;
  crashes : crash list;
  skews_us : (int * int) list;  (** (node, clock skew in µs) *)
  eclipses : eclipse list;
  inflations : delay_inflate list;
}

(** The empty plan: perfectly reliable transport, no crashes, no skew. *)
val none : plan

(** [is_none p] — nothing scheduled; the network takes the fault-free
    fast path (and does not split a fault RNG off the engine). *)
val is_none : plan -> bool

(** [loss ~from_us ~until_us ~drop_p plan] adds a lossy window during
    which each message (optionally filtered to [src]/[dst]) is dropped
    with probability [drop_p] and duplicated with probability [dup_p]
    (default 0). Probabilities must lie in \[0,1\]. *)
val loss :
  ?src:int ->
  ?dst:int ->
  ?dup_p:float ->
  from_us:int ->
  until_us:int ->
  drop_p:float ->
  plan ->
  plan

(** [partition ~from_us ~heal_us ~island plan] cuts every link between
    [island] and its complement during \[[from_us], [heal_us]).
    Intra-island and intra-complement traffic is unaffected. *)
val partition : from_us:int -> heal_us:int -> island:int list -> plan -> plan

(** [crash ~node ~at_us plan] schedules a fail-stop crash; with
    [?recover_us] the node rejoins at that time with its handler intact
    (in-flight messages from before the crash stay lost). *)
val crash : ?recover_us:int -> node:int -> at_us:int -> plan -> plan

(** [skew ~node ~skew_us plan] offsets [node]'s local clock by a fixed
    [skew_us] (may be negative). Applied by protocol adapters on top of
    their own sampled clock offsets; the transport ignores it. *)
val skew : node:int -> skew_us:int -> plan -> plan

(** [eclipse ~victim ~from_us ~until_us ~owned plan] adds a targeted
    eclipse (see {!eclipse}): the adversary owns the victim's links to
    the [owned] peers and drops ([?delay_us] absent) or delays
    ([?delay_us] present) everything on them, both directions.
    [?diverse] declares the links it can never claim. Unlike loss
    windows, an eclipse draws no randomness — it is a deterministic
    adversary move, so adding one never shifts the RNG streams of the
    rest of the run. *)
val eclipse :
  ?diverse:int list ->
  ?delay_us:int ->
  victim:int ->
  from_us:int ->
  until_us:int ->
  owned:int list ->
  plan ->
  plan

(** [delay_inflate ~from_us ~until_us ~a ~b ~extra_us plan] inflates
    the one-way latency of every message between the disjoint endpoint
    sets [a] and [b] by [extra_us] during the window (both
    directions). Deterministic, like {!eclipse}. *)
val delay_inflate :
  from_us:int ->
  until_us:int ->
  a:int list ->
  b:int list ->
  extra_us:int ->
  plan ->
  plan

(** [delay_inflate_regions ~n ~between:(ra, rb) ...] — {!delay_inflate}
    with the endpoint sets resolved from {!Regions.paper_placement},
    the BGP-hijack region-pair form. *)
val delay_inflate_regions :
  n:int ->
  from_us:int ->
  until_us:int ->
  between:Regions.t * Regions.t ->
  extra_us:int ->
  plan ->
  plan

(** [island_of_regions ~n regions] — the node ids that
    {!Regions.paper_placement}[ n] places in any of [regions]; a
    convenience for region-granular partitions. *)
val island_of_regions : n:int -> Regions.t list -> int list

(** [validate plan ~n] raises [Invalid_argument] on out-of-range node
    ids, probabilities outside \[0,1\], or empty/inverted windows. *)
val validate : plan -> n:int -> unit

(** [drop_prob plan ~now ~src ~dst] — the effective probability that
    a message entering the wire now is dropped. Overlapping windows
    compose as independent trials. Exactly [0.] when no window
    matches, so callers can skip the RNG draw entirely. *)
val drop_prob : plan -> now:int -> src:int -> dst:int -> float

(** [dup_prob plan ~now ~src ~dst] — the same for duplication, drawn
    independently of the drop. *)
val dup_prob : plan -> now:int -> src:int -> dst:int -> float

(** [partitioned plan ~now ~src ~dst] — some active partition separates
    the two endpoints. *)
val partitioned : plan -> now:int -> src:int -> dst:int -> bool

(** [skew_us plan node] — the node's scheduled clock skew (0 if none;
    multiple entries sum). *)
val skew_us : plan -> int -> int

(** What the active eclipses do to one wired message. *)
type link_fate = Link_up | Link_cut | Link_delayed of int

(** [eclipse_fate plan ~now ~src ~dst] — the fate of a message entering
    the wire now: [Link_cut] if any active eclipse owns the link and
    cuts it, [Link_delayed d] with the summed delay of active delaying
    eclipses, [Link_up] otherwise. Pure and RNG-free. *)
val eclipse_fate : plan -> now:int -> src:int -> dst:int -> link_fate

(** [inflation_us plan ~now ~src ~dst] — summed extra one-way delay of
    every active {!delay_inflate} matching the endpoint pair (0 when
    none match). *)
val inflation_us : plan -> now:int -> src:int -> dst:int -> int

(** The distinct eclipse victims of the plan, ascending — the nodes the
    per-victim oracles should judge. *)
val eclipse_victims : plan -> int list

(** [active plan ~now] — human-readable labels of every fault event
    live at [now] (crashed-and-not-yet-recovered nodes included), used
    to attribute invariant violations and stall windows. *)
val active : plan -> now:int -> string list
