(** Per-node CPU: [cores] parallel FIFO servers with explicit service
    times.

    Each simulated process owns one CPU. Message handling is submitted
    as a job with a service time from the {!Costs} table; a job runs on
    the earliest-free core for its full service time, so up to [cores]
    jobs overlap and the (cores+1)-th queues — an overloaded node
    (e.g. a HotStuff leader) develops real queueing delay, the
    mechanism behind the Fig. 3 saturation behaviour.

    A job is an [int] (the network's in-flight packet slot): its
    completion is an {!Engine.post} of the CPU's kind, dispatched to
    the engine's sink, so queueing a job allocates nothing. *)

type t

(** [create ?cores ?kind engine] — [cores] (default 1) parallel
    servers; [kind] (default [Cpu_job]) is the kind of the completion
    events: the sink dispatches on it, and the profiler's
    {!Engine.executed_by_kind} breakdown counts it. *)
val create : ?cores:int -> ?kind:Engine.kind -> Engine.t -> t

(** [attach_timeline t tl] mirrors every job's busy interval into [tl]
    (µs of service per bucket, boundary-split proportionally), for
    utilization-over-time profiles. *)
val attach_timeline : t -> Metrics.Timeline.t -> unit

(** [submit t ~service_us job] posts [job] to the engine's sink, with
    the CPU's kind, once a core has spent [service_us] of service on it
    (queueing included). *)
val submit : t -> service_us:int -> int -> unit

val cores : t -> int

(** Cumulative busy time across all cores (µs). *)
val busy_us : t -> int

(** [utilization t ~over_us] is busy time over the window's aggregate
    capacity ([over_us * cores]); 1.0 = all cores saturated. *)
val utilization : t -> over_us:int -> float

(** Queueing delay a job submitted now would wait before starting:
    earliest core-free time minus now (0 = some core is idle). *)
val backlog_us : t -> int
