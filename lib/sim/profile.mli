(** Simulator profiler: where do the engine's events and each node's
    capacity go?

    Attaching a profiler (a) mirrors every CPU/NIC busy interval into a
    per-node {!Metrics.Timeline} (utilization over time), and (b)
    samples every CPU/NIC queue backlog once per bucket into a
    {!Metrics.Recorder} (backlog percentiles). Combined with
    {!Engine.executed_by_kind} this answers "was the run
    compute-bound, wire-bound or idle, and which node was the
    bottleneck".

    Attaching schedules sampling events on the engine, so profiled
    runs execute more engine events than unprofiled ones (behaviour is
    unchanged — sampling only reads state). Profiling is therefore
    opt-in per run. *)

type t

(** [attach engine ~cpus ~nics ~until_us] instruments the given
    processors and samples backlogs every [bucket_us] (default
    100_000) until [until_us]. Call before running the simulation. *)
val attach :
  ?bucket_us:int ->
  Engine.t ->
  cpus:Cpu.t array ->
  nics:Cpu.t array ->
  until_us:int ->
  t

val cpu_backlog : t -> int -> Metrics.Recorder.t

val nic_backlog : t -> int -> Metrics.Recorder.t

(** Multi-line plain-text report: engine event-kind breakdown plus a
    per-node table of mean/peak utilization and backlog percentiles
    over the [over_us] window. *)
val report : t -> over_us:int -> string
