(** Continuous safety/liveness monitor: subscribes to every node's
    output stream and checks invariants *while* the run (and any fault
    plan) is live, instead of once at end-of-run.

    Checked continuously:
    - {b prefix agreement}: the i-th batch committed by any node equals
      the i-th batch of the canonical sequence (the first stream to
      reach position i defines it). Equivalent to all-pairs
      mutual-prefix, caught at the exact engine timestamp of the first
      divergence.
    - {b durability}: each node's stream is append-only against the
      canonical sequence, so a replica that crashes and recovers can
      extend but never rewrite what it (or anyone) already committed.
      A violation carries the fault events active at that instant.
    - {b liveness}: a watchdog ticks through the observation window and
      records [(start, end)] stall windows during which no node in the
      cluster committed anything for more than 1 s.
      Stalls are measurements, not violations — a partition is
      *expected* to stall consensus; the point is to see it. *)

type violation = {
  v_at_us : int;  (** engine time of the first divergence *)
  v_node : int;
  v_kind : string;  (** ["prefix-agreement"] *)
  v_detail : string;
  v_active_faults : string list;  (** {!Sim.Faults.active} at [v_at_us] *)
}

type t

(** [create engine ~n ~faults ~from_us ~until_us ()] — the watchdog
    observes \[[from_us], [until_us]\] (ticks every 100 ms; a stall
    opens after 1 s without cluster-wide progress).
    Commit checking is active from the first {!on_commit} regardless of
    the window. The monitor only reads engine time and never touches
    the RNG, so attaching it cannot perturb a run. *)
val create :
  Sim.Engine.t ->
  n:int ->
  faults:Sim.Faults.plan ->
  from_us:int ->
  until_us:int ->
  unit ->
  t

(** Start the watchdog (no-op on an empty observation window). *)
val start : t -> unit

(** [on_commit t ~node ~key] feeds one committed batch key, in the
    node's commit order. Call it from the scenario's output callback. *)
val on_commit : t -> node:int -> key:string -> unit

(** Close any open stall window; call once after the engine stops. *)
val finalize : t -> unit

val first_violation : t -> violation option

(** Stall windows, in chronological order, after {!finalize}. *)
val stall_windows : t -> (int * int) list

val pp_violation : Format.formatter -> violation -> unit
