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

(** Content-aware prefix agreement over [honest_logs] (keys AND
    transaction-content digests): catches equivocation that splits
    payloads under a single instance key, which key-level [prefix_safe]
    cannot see. *)
val prefix_agreement : Scenario.result -> finding option

(** The continuous monitor's first violation, as an oracle finding. *)
val monitor_clean : Scenario.result -> finding option

(** Commit durability: no decision arrived below the already-committed
    boundary ([late_accepts] must be 0). *)
val commit_durability : Scenario.result -> finding option

(** Ordering linearizability (BOC-Validity): every decided sequence
    number within the adapter's declared [(low, high)] window; trivially
    clean for protocols that declare no bounds. *)
val seq_lower_bound : Scenario.result -> finding option

(** Sequence numbers leave each node in ascending output order. *)
val monotone_seqs : Scenario.result -> finding option

(** How much liveness to demand. Opt-in and graded: fault plans
    legitimately stall progress ([Off]), and batch-pipelined protocols
    (Pompē) commit in bursts farther apart than the monitor's stall
    watchdog even when healthy ([Commit_only]). *)
type liveness_level = Off | Commit_only | Full

(** Something committed within the measurement window. *)
val liveness_commit : Scenario.result -> finding option

(** [liveness_commit] plus: no stall window longer than the monitor's
    budget. Arm only for protocols with sub-budget commit cadence. *)
val liveness : Scenario.result -> finding option

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

(** The five safety oracles above, in order. *)
val safety_suite : (Scenario.result -> finding option) list

(** The two per-victim attack oracles, liveness first (with the
    default stall gap; use {!victim_liveness} directly to tune it). *)
val attack_suite :
  victims:int list -> (Scenario.result -> finding option) list

(** The graded suite: safety plus the selected liveness level. *)
val suite : liveness:liveness_level -> (Scenario.result -> finding option) list

(** [check ~liveness r] — every finding of the selected suite, in
    suite order; [] means the run is clean. A non-empty [victims]
    (default []) appends {!attack_suite} after the graded suite. *)
val check :
  ?victims:int list ->
  liveness:liveness_level ->
  Scenario.result ->
  finding list
