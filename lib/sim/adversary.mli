(** Network adversary for the partially synchronous model (§II-A).

    Before the Global Stabilization Time the adversary may delay any
    message arbitrarily; after GST every message between correct
    processes arrives within Δ. The adversary here adds extra delay on
    top of the link latency; it never drops messages (channels are
    reliable). A policy is pure data, so explorer repro artifacts carry
    it through a JSON round-trip. *)

type t =
  | Pre_gst of { gst : int; max_extra : int }
      (** delays every message sent before [gst] by a uniform amount in
          [\[0, max_extra\]], truncated so that delivery never happens
          after [gst + max_extra] *)
  | Targeted of { gst : int; max_extra : int; victims : int list }
      (** the same delay, but only on messages to or from a victim *)

(** [extra_delay t rng ~now ~src ~dst] is the additional delay (µs) the
    adversary imposes on a message sent at [now]. It draws from [rng]
    only for a message it delays: none at or after GST, and none
    between two non-victims of a [Targeted] policy. *)
val extra_delay : t -> Crypto.Rng.t -> now:int -> src:int -> dst:int -> int

(** The adversary's GST; used by experiments that measure post-GST
    behaviour. *)
val gst : t -> int

(** [validate t ~n] raises [Invalid_argument] on out-of-range victims,
    negative times, or an empty victim list. *)
val validate : t -> n:int -> unit

(** One-line human-readable description, for sweep logs. *)
val label : t -> string
