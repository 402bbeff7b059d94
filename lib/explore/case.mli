(** One explorable execution: a protocol + symbolic knob, a seed, a
    fault plan and a schedule perturbation. A case is pure data — it
    serializes to the replayable repro artifact and runs through the
    generic {!Harness.Scenario} driver, so two executions of the same
    case are bit-for-bit identical. *)

type t = {
  protocol : string;
  knob : string;  (** symbolic configuration, resolved by {!Knobs.make} *)
  n : int;
  seed : int64;
  duration_us : int;  (** measurement window (warm-up is the protocol's) *)
  clients : int;  (** closed-loop clients per node *)
  faults : Sim.Faults.plan;
  adversary : Sim.Adversary.t option;
      (** pre-GST message-delay policy, as replayable pure data *)
  perturb : Sim.Perturb.t;
}

val make :
  ?knob:string ->
  ?n:int ->
  ?seed:int64 ->
  ?duration_us:int ->
  ?clients:int ->
  ?faults:Sim.Faults.plan ->
  ?adversary:Sim.Adversary.t ->
  ?perturb:Sim.Perturb.t ->
  string ->
  t

(** One-line description for sweep/shrink logs. *)
val label : t -> string

(** Execute the case. Raises [Invalid_argument] on an unknown
    protocol/knob pair. *)
val run : t -> Harness.Scenario.result

(** The liveness level a protocol owes when nothing attacks it:
    [Commit_only] for Pompē (bursty commit cadence), [Full] otherwise. *)
val healthy_liveness : string -> Harness.Oracle.liveness_level

(** [check t result] — the oracle verdict. Liveness is armed at
    {!healthy_liveness}, or [Off] under fault plans, adversaries or
    broken knobs; eclipse plans additionally arm the per-victim attack
    oracles on their victims. [] means clean. *)
val check : t -> Harness.Scenario.result -> Harness.Oracle.finding list

(** The artifact's one description: reading, writing and the schema
    that {!Metrics.Json.write_file} checks all derive from it. The
    [version] field is 2 (eclipses/inflations and the adversary);
    version-1 artifacts still load with those empty.
    Reading rejects [n < 1], [duration_us <= 0], [clients < 0], a
    protocol/knob pair {!Knobs.make} does not know, and whatever
    {!Sim.Faults.validate}, {!Sim.Adversary.validate} and
    {!Sim.Perturb.validate} reject. *)
val desc : t Metrics.Json.desc

(** Parses and validates (see {!desc}); [Error] carries the JSON path
    and a human-readable cause, and no input raises. *)
val of_string : string -> (t, string) result
