(** The schedule-space sweep: run many short cluster executions under
    generated schedule perturbations, fault-plan mutations and Byzantine
    knobs, check every run against the {!Harness.Oracle} suite, and
    greedily shrink the first violation to a minimal replayable case.

    All randomness lives in case {e generation}; each generated
    {!Case.t} is pure data and replays bit-for-bit. *)

type verdict = { case : Case.t; findings : Harness.Oracle.finding list }

type outcome =
  | Clean of int  (** all runs passed; payload = runs executed *)
  | Violating of {
      first : verdict;  (** the violation as found *)
      minimal : verdict;  (** after greedy shrinking *)
      shrink_attempts : int;  (** executions spent shrinking *)
      runs : int;  (** sweep runs until the find (inclusive) *)
    }

(** [gen_case rng ~protocol ~knob ~n ~duration_us ~clients ~with_faults]
    — one random case: 1–3 perturbation ops (delays bounded well under
    the liveness stall watchdog) and, when [with_faults], at most one
    mild healing fault (loss window, 1-node partition, or recovering
    crash — never clock skew). *)
(* lint: allow S005 test_explore drives case generation directly *)
val gen_case :
  Crypto.Rng.t ->
  protocol:string ->
  knob:string ->
  n:int ->
  duration_us:int ->
  clients:int ->
  with_faults:bool ->
  Case.t

(** [shrink ?budget ?log case findings] — greedy fixpoint shrink: drop
    perturbation ops, drop fault entries, neutralize the knob, reduce
    clients, halve delays; a candidate is adopted only if it still
    trips an oracle that [findings] tripped. Returns the minimal
    verdict and the number of executions spent (≤ [budget],
    default 60). *)
(* lint: allow S005 test_explore drives shrinking directly *)
val shrink :
  ?budget:int ->
  ?log:(string -> unit) ->
  Case.t ->
  Harness.Oracle.finding list ->
  verdict * int

(** Per-protocol measurement runway used when [sweep]'s [duration_us]
    is omitted (Pompē needs multi-second pipelines to commit at all). *)
val duration_for : string -> int

(** Per-protocol warm-up the generated cases assume: the adapter's
    [default_warmup_us] (Lyra's distance measurement needs 1.5 s); the
    attack campaigns place their windows after it. Raises
    [Invalid_argument] on an unknown protocol. *)
val warmup_of_protocol : string -> int

(** [sweep ()] — up to [runs] (default 30) executions cycling through
    [pairs] (default: every {!Knobs.safe} knob of every registered
    protocol). The first pass over the catalog runs clean schedules as
    a baseline; later passes perturb. Stops at the first violation and
    shrinks it. [log] receives progress lines. *)
val sweep :
  ?seed:int64 ->
  ?n:int ->
  ?duration_us:int ->
  ?clients:int ->
  ?runs:int ->
  ?with_faults:bool ->
  ?pairs:(string * string) list ->
  ?shrink_budget:int ->
  ?log:(string -> unit) ->
  unit ->
  outcome
