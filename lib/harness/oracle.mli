(** Safety oracles over a finished {!Scenario.run}: the judgment layer
    of the schedule-space explorer (bin/lyra_explore), also usable by
    any test that wants a one-call verdict on a run.

    Oracles are pure functions of the {!Scenario.result} record — they
    never touch the engine, the RNG or the nodes, so judging a run
    cannot perturb it. The continuous {!Invariant_monitor} catches
    prefix/durability divergence *during* the run with exact
    timestamps; these oracles re-examine the end state with stronger,
    content-aware checks and fold the monitor's verdict into the same
    interface. *)

(** One violated property: which oracle and a human-readable cause. *)
type finding = { oracle : string; detail : string }

val pp_finding : Format.formatter -> finding -> unit

(** How much liveness to demand. Opt-in and graded: fault plans
    legitimately stall progress ([Off]), and batch-pipelined protocols
    (Pompē) commit in bursts farther apart than the monitor's stall
    watchdog even when healthy ([Commit_only]). *)
type liveness_level = Off | Commit_only | Full

(** [victim_liveness ~victims] judges attacked runs: fires when a
    victim's own committed log stopped advancing more than
    [stall_gap_us] (default 1.5 s) behind the most advanced honest
    non-victim — the signature of a starved (eclipsed) node. Victims
    outside [honest_ids] are not judged. Vacuously clean when no
    non-victim progressed either. *)
val victim_liveness :
  ?stall_gap_us:int -> victims:int list -> Scenario.result -> finding option

(** [censorship_exposure ~victims] fires when a victim submitted
    transactions yet no honest replica ever committed one of them
    (judged cluster-wide over the whole run, so closed-loop clients
    that stop once starved cannot make it vacuous). *)
val censorship_exposure :
  victims:int list -> Scenario.result -> finding option

(** [check ~liveness r] — every finding of the graded suite, in suite
    order; [] means the run is clean. The suite is five safety oracles:
    - ["prefix-agreement"]: content-aware prefix agreement over
      [honest_logs] (keys AND transaction-content digests), the check
      behind [prefix_safe], naming the first honest node that fails;
    - the continuous monitor's first violation;
    - commit durability ([late_accepts] must be 0);
    - BOC-Validity: every decided sequence number within the adapter's
      declared window;
    - sequence numbers leave each node in ascending output order;
    then [Commit_only] adds "something committed" and [Full] also
    bounds stall windows by the monitor's budget. A non-empty [victims]
    (default []) appends {!victim_liveness} (default stall gap) and
    {!censorship_exposure}. *)
val check :
  ?victims:int list ->
  liveness:liveness_level ->
  Scenario.result ->
  finding list
