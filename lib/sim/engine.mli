(** Deterministic discrete-event simulation engine.

    Simulated time is an [int] count of microseconds. Components
    schedule closures or post int-tagged events; [run] executes them in
    timestamp order (FIFO within a timestamp). Given a seed, an entire
    experiment replays bit-for-bit, which the property tests rely on.

    An event is one [int] in the {!Timing_wheel}: its {!kind} plus a
    closure slot ({!schedule}) or a sink argument ({!post}). Closures
    wait in a recycled slot table; posted events dispatch to the one
    sink the engine's network registers, so the per-message path
    ({!Cpu.submit}, the network's wire stage) allocates nothing.
    Once scheduled, an event fires: a component that must ignore a
    stale event checks its own state when the event fires (the
    network's crash incarnations, a protocol's round or view
    numbers). *)

type t

(** Coarse event taxonomy for the profiler: what share of the engine's
    work is wire deliveries vs CPU job completions vs NIC transmissions
    vs plain protocol timers. A [Timer] is a scheduled closure; the
    other kinds are posted to the sink. *)
type kind = Timer | Wire | Cpu_job | Nic_tx

(** [create ~seed ()] returns a fresh engine with its own root RNG. *)
val create : ?seed:int64 -> unit -> t

(** Current simulated time in microseconds. *)
val now : t -> int

(** The engine's root RNG; [split] it per component for isolation. *)
val rng : t -> Crypto.Rng.t

(** [schedule t ~delay f] runs [f] at [now + delay] (delay ≥ 0), as a
    [Timer] event. *)
val schedule : t -> delay:int -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f] at absolute [time] (≥ now). *)
val schedule_at : t -> time:int -> (unit -> unit) -> unit

(** [post t ~time ~kind arg] makes the sink run [sink kind arg] at
    absolute [time] (≥ now). Allocates nothing once the wheel's pool
    has grown.
    @raise Invalid_argument if [kind] is [Timer] or [arg] is negative. *)
val post : t -> time:int -> kind:kind -> int -> unit

(** [set_sink t f] registers the handler of every {!post}ed event.
    @raise Invalid_argument if [t] already has one (one network per
    engine). *)
val set_sink : t -> (kind -> int -> unit) -> unit

(** [run t ~until] processes events up to and including simulated time
    [until]; afterwards [now t = until]. *)
val run : t -> until:int -> unit

(** [run_until_idle t] processes events until none remain. The optional
    [limit] (default 500M) guards against livelock in buggy protocols. *)
val run_until_idle : ?limit:int -> t -> unit

(** Number of events executed so far. *)
val events_executed : t -> int

(** Executed-event counts broken down by {!kind}, in a fixed order. *)
val executed_by_kind : t -> (string * int) list

(** Number of events still pending. *)
val pending : t -> int
