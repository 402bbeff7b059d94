(** Deterministic discrete-event simulation engine.

    Simulated time is an [int] count of microseconds. Components
    schedule closures; [run] executes them in timestamp order (FIFO
    within a timestamp). Given a seed, an entire experiment replays
    bit-for-bit, which the property tests rely on. *)

type t

type timer
(** Cancellable handle returned by {!schedule}. *)

(** Coarse event taxonomy for the profiler: what share of the engine's
    work is wire deliveries vs CPU job completions vs NIC transmissions
    vs plain protocol timers. *)
type kind = Timer | Wire | Cpu_job | Nic_tx

(** [create ~seed ()] returns a fresh engine with its own root RNG. *)
val create : ?seed:int64 -> unit -> t

(** Current simulated time in microseconds. *)
val now : t -> int

(** The engine's root RNG; [split] it per component for isolation. *)
val rng : t -> Crypto.Rng.t

(** [schedule t ~delay f] runs [f] at [now + delay] (delay ≥ 0).
    [kind] (default [Timer]) tags the event for {!executed_by_kind}. *)
val schedule : ?kind:kind -> t -> delay:int -> (unit -> unit) -> timer

(** [schedule_at t ~time f] runs [f] at absolute [time] (≥ now). *)
val schedule_at : ?kind:kind -> t -> time:int -> (unit -> unit) -> timer

(** [cancel timer] prevents a pending timer from firing; idempotent.
    Cancelled timers stop counting towards {!pending} and are excluded
    from {!run_until_idle}'s budget and {!events_executed}. *)
val cancel : timer -> unit (* lint: allow S005 no protocol cancels a timer yet; test_sim pins the semantics *)

(** [run t ~until] processes events up to and including simulated time
    [until]; afterwards [now t = until]. *)
val run : t -> until:int -> unit

(** [run_until_idle t] processes events until none remain. The optional
    [limit] (default 500M) guards against livelock in buggy protocols;
    only events that actually execute are charged against it. *)
val run_until_idle : ?limit:int -> t -> unit

(** Number of events executed so far (cancelled timers excluded). *)
val events_executed : t -> int

(** Executed-event counts broken down by {!kind}, in a fixed order. *)
val executed_by_kind : t -> (string * int) list

(** Number of live (non-cancelled) events still pending. *)
val pending : t -> int
