(** Attacker-window search: the minimal adversary control, per protocol
    and campaign kind, before the {!Harness.Oracle} suite (or a
    throughput-collapse criterion) notices the attack.

    Campaign budgets are small integers with protocol-independent
    units, so rows compare across protocols: an eclipse budget counts
    victim links the adversary owns, a delay-inflation budget counts
    100 ms units of BGP-detour latency on the Oregon–Ireland route, a
    pre-GST budget counts 200 ms units of maximal adversarial delay.
    The search probes the budget ceiling first (a clean ceiling means
    no attacker window in that family) and otherwise binary-searches
    the minimal tripping budget. Every probe is an {!Case} run: pure
    data, bit-identical under replay. *)

type kind =
  | Eclipse of { diversity : int }
      (** monopolize victim links; [diversity] netgroup-diverse links
          stay out of reach (the defense knob) *)
  | Delay_inflate  (** BGP-hijack-style region-pair latency inflation *)
  | Pre_gst_delay  (** classic partial-synchrony pre-GST delays *)

(** One scorecard row: the campaign, its budget ceiling, the minimal
    tripping budget ([None] when even the ceiling stays clean), which
    oracle tripped there, and how many scenario runs the search
    spent. *)
type row = {
  protocol : string;
  attack : string;  (** {!kind_label} of the campaign *)
  budget_unit : string;
  max_budget : int;
  minimal_budget : int option;
  tripped : string option;
      (** oracle name at the minimal budget, or ["degradation"] for the
          throughput-collapse criterion *)
  ceiling_tripped : string option;
      (** what the full-budget probe tripped (first tripping
          placement) — e.g. full isolation must show
          ["victim-liveness"] *)
  runs : int;
}

val kind_label : kind -> string

val default_protocols : string list

(** [scorecard ()] sweeps {!attacks_for} over [protocols] (default
    {!default_protocols}) with [placements] seeded victim/link-order
    placements each (default 1), reporting the minimum over placements.
    Deterministic in [seed]; [log] receives one line per probed
    budget. *)
val scorecard :
  ?seed:int64 ->
  ?n:int ->
  ?clients:int ->
  ?placements:int ->
  ?protocols:string list ->
  ?log:(string -> unit) ->
  unit ->
  row list
