(** Structured event tracing for simulations.

    A trace is an append-only log of timestamped, type-tagged events
    with a node attribution. Scenarios install a trace into the
    components they want to observe; tests query it with filters.

    Recording is designed to be near-zero-cost when off: categories
    are a closed variant checked against a bitmask (one [land] per
    {!enabled} test) and details are variant payloads, never strings —
    callers on hot paths build the payload inside an [enabled] guard,
    so a disabled category costs neither an allocation nor any string
    formatting. *)

(** Closed set of event categories. [Fault] and [Phase] are low-volume
    (drops, crashes, pipeline milestones); [Net] logs every message
    handed to the transport and is opt-in. *)
type category = Fault | Phase | Net

(** Structured event payload, stored unrendered. *)
type detail =
  | Text of string  (** escape hatch for ad-hoc notes *)
  | Drop of { src : int }  (** loss window dropped a message *)
  | Dup of { src : int }  (** duplication window injected a copy *)
  | Partition_drop of { src : int }  (** partition cut the link *)
  | Eclipse_drop of { src : int }  (** an eclipse owned the link *)
  | Crash
  | Recover
  | Send of { dst : int; bytes : int }  (** transport accepted a message *)
  | Span of { span : string; from_us : int }
      (** named interval ending at the event's [at_us] *)
  | Mark of { mark : string; proposer : int; index : int }
      (** per-batch pipeline milestone *)

type event = { at_us : int; node : int; category : category; detail : detail }

type t

(** [create engine] — [categories] selects what is recorded (default
    [[Fault; Phase]]; add [Net] to include the
    per-message [Net] firehose); [capacity] bounds memory (default
    1_000_000 events; older events are dropped, oldest first). *)
(* lint: allow S005 tests are the only code that installs a trace *)
val create : ?categories:category list -> ?capacity:int -> Engine.t -> t

(** [record t ~node category detail] appends an event stamped with the
    current simulated time (no-op if the category is not subscribed). *)
val record : t -> node:int -> category -> detail -> unit

(** Whether a category is being recorded — a single bitmask test; hot
    paths check this before building the detail payload. *)
val enabled : t -> category -> bool

(** Events in chronological order, optionally filtered. *)
(* lint: allow S005 tests are the only reader of a trace *)
val events :
  ?node:int -> ?category:category -> ?since_us:int -> t -> event list

val count : t -> int (* lint: allow S005 tests are the only reader of a trace *)

(** Number of events discarded due to the capacity bound. *)
val dropped : t -> int (* lint: allow S005 tests are the only reader of a trace *)
