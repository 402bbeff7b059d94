(** Deterministic schedule perturbations for the schedule-space
    explorer.

    A perturbation is pure data: a list of ops that each map a message
    entering the wire (identified by its position in the send order, its
    endpoints, and the simulated time) to an extra delivery delay. The
    transport applies the summed extra delay on top of the sampled link
    latency, so a perturbed run is just a different — still fully
    deterministic — interleaving of the same protocol.

    The empty perturbation is free: {!Network} neither splits an RNG nor
    schedules anything for it, so a run with [Perturb.none] is
    bit-identical to one without the argument (the explorer's control
    runs rely on this).

    Ops compose additively when several match one message. *)

type op =
  | Delay_nth of { nth : int; extra_us : int }
      (** Hold the [nth] message handed to the wire (0-based, counted
          across all links, before drop/duplication) for [extra_us]
          longer — the single-message jitter knob. *)
  | Delay_window of {
      from_us : int;
      until_us : int;  (** exclusive *)
      src : int option;  (** [None] = any sender *)
      dst : int option;  (** [None] = any receiver *)
      extra_us : int;
    }
      (** Uniformly delay every matching message inside the window. *)
  | Reverse_window of {
      from_us : int;
      until_us : int;  (** exclusive *)
      src : int option;
      dst : int option;
    }
      (** Delay each matching message by twice the remaining window, so
          messages sent early in the window arrive after messages sent
          late — a deterministic reorder knob. *)

type t = op list

(** The empty perturbation: the schedule is untouched. *)
val none : t

val is_none : t -> bool

(** [extra_us t ~now ~src ~dst ~nth] — the summed extra delay (µs) for
    the [nth] wire message from [src] to [dst] entering the wire at
    simulated time [now]. 0 when nothing matches. *)
val extra_us : t -> now:int -> src:int -> dst:int -> nth:int -> int

(** Raises [Invalid_argument] on negative delays/indices, empty windows
    or out-of-range endpoints. *)
val validate : t -> n:int -> unit
