(** Simulated point-to-point network with authenticated channels
    (§II-A), parameterized by the protocol's message type.

    A message from [src] to [dst] pays, in order:
    - transmission time on [src]'s egress NIC ([size msg] bytes at the
      configured line rate; broadcasts serialize n transmissions, which
      is what makes a HotStuff leader a bandwidth bottleneck);
    - link latency (+ adversarial delay before GST) on the wire;
    - CPU service on [dst] ([cost ~dst msg] µs on a FIFO CPU queue).

    Self-addressed messages skip the NIC and wire but still pay CPU.
    There is one broadcast path, all-to-all: {!broadcast} is n
    point-to-point sends, the O(n²) dissemination that Lyra's VVB,
    DBFT rounds and reveals rely on and that every experiment
    measures.

    Reliability is plan-dependent: with the default empty {!Faults}
    plan, messages are never lost or tampered with and Byzantine
    behaviour lives in the node logic, not the transport. A non-empty
    plan may drop or duplicate messages inside loss windows, cut links
    across a partition, crash/recover nodes on schedule, cut or delay
    an eclipse victim's owned links, and inflate region-pair latency
    (BGP-hijack style) — all deterministically in the engine seed.
    Messages are never tampered with or reordered beyond their sampled
    delays in any plan.

    Orthogonally, a {!Perturb} spec adds deterministic extra delay to
    selected wire messages — the schedule-space explorer's lever for
    forcing adversarial interleavings without touching the RNG
    streams. *)

type 'msg t

(** Vestigial: broadcasts are always all-to-all (see {!broadcast}), and
    {!create} ignores its [?dissemination] argument. The type and the
    argument remain only because callers outside [lib/] still forward
    them; ROADMAP NODE step 3 deletes both. *)
type dissemination = All_to_all

(** [create engine ~n ~latency ~cost ~size ()] builds a network of [n]
    endpoints. [cost ~dst msg] is the CPU service time (µs) node [dst]
    pays to process [msg]; [size msg] its wire size in bytes.
    [ns_per_byte] sets the per-node line rate (default 8 ≈ 1 Gb/s);
    [cores] the per-node CPU parallelism (default 8, as the paper's
    16-vCPU machines). [faults] schedules transport/process faults
    (validated against [n]; default {!Faults.none} keeps the transport
    perfectly reliable and consumes no extra randomness). [trace]
    records a {!Trace.Fault} event per drop, duplicate, crash and
    recovery, and — when the [Net] category is subscribed — a
    {!Trace.Send} per message handed to the transport. Drop and
    duplication windows are sampled independently, so the observed
    drop and duplicate rates each match their configured
    probabilities. [perturb] (default {!Perturb.none}) adds
    deterministic extra delays to matching wire messages; the empty
    spec draws no randomness and schedules nothing, so it leaves the
    event schedule bit-identical. The wire-entry counter that
    [Perturb.Delay_nth] addresses advances for every non-self message
    handed to the wire, even ones a partition or loss window then
    drops. [adversary] is validated against [n] ({!Adversary.validate}).
    [dissemination] is ignored (see {!dissemination}). *)
val create :
  Engine.t ->
  n:int ->
  latency:Latency.t ->
  ?adversary:Adversary.t ->
  ?ns_per_byte:int ->
  ?cores:int ->
  ?faults:Faults.plan ->
  ?perturb:Perturb.t ->
  ?trace:Trace.t ->
  ?dissemination:dissemination ->
  cost:(dst:int -> 'msg -> int) ->
  size:('msg -> int) ->
  unit ->
  'msg t

(** [register t ~id handler] installs the message handler of node [id];
    [handler ~src msg] runs after CPU service completes. The handler
    survives crash/recovery. *)
val register : 'msg t -> id:int -> (src:int -> 'msg -> unit) -> unit

(** [send t ~src ~dst msg] transmits one message. *)
val send : 'msg t -> src:int -> dst:int -> 'msg -> unit

(** [broadcast t ~src msg] delivers to every node, including [src]
    itself (self-delivery skips NIC and wire but pays CPU; it is also
    immune to loss windows and partitions): the origin sends n
    point-to-point copies, so its NIC serializes n − 1 transmissions. *)
val broadcast : 'msg t -> src:int -> 'msg -> unit

(** [crash t id] makes node [id] silently drop everything from now on
    (fail-stop). Everything in flight towards or queued on the node —
    wire deliveries, pending CPU work, NIC transmissions — is
    tombstoned and will not execute even if the node later recovers. *)
val crash : 'msg t -> int -> unit

(** [recover t id] undoes {!crash}: the node resumes sending and
    receiving with its registered handler intact, and its [on_recover]
    hook (if any) runs. Messages tombstoned by the crash stay lost. *)
(* lint: allow S005 test_sim crashes and recovers nodes by hand *)
val recover : 'msg t -> int -> unit

(** [on_recover t ~id hook] runs [hook] whenever node [id] recovers
    (protocols use it to restart timers / re-enter the pipeline). *)
val on_recover : 'msg t -> id:int -> (unit -> unit) -> unit

val is_crashed : 'msg t -> int -> bool

val engine : 'msg t -> Engine.t

val n : 'msg t -> int

(** CPU of a node, for utilization reports. *)
val cpu : 'msg t -> int -> Cpu.t

(** Egress NIC of a node (service times are transmission times). *)
val nic : 'msg t -> int -> Cpu.t

(** [phase_sink t ~node] is node [node]'s phase-tracker sink: it
    records a {!Trace.Mark} for every opened entry (proposer [node],
    index = key) and a {!Trace.Span} for every recorded span, under
    {!Trace.Phase}, into the trace installed at creation, if any, so
    one trace interleaves transport faults with pipeline progress. *)
val phase_sink : 'msg t -> node:int -> Metrics.Phases.sink

(** Total messages handed to the transport so far. *)
val messages_sent : 'msg t -> int

(** Messages delivered (handler executed). *)
val messages_delivered : 'msg t -> int (* lint: allow S005 transport counter probe for test_sim *)

(** Total bytes offered to the transport. *)
val bytes_sent : 'msg t -> int

(** Messages dropped by the fault plan (loss windows, partitions and
    eclipses). *)
val messages_dropped : 'msg t -> int

(** Extra copies injected by duplication windows. *)
val messages_duplicated : 'msg t -> int

(** Messages an eclipse cut at wire entry (counted into
    {!messages_dropped} as well). *)
(* lint: allow S005 transport counter probe for test_adversary *)
val messages_eclipsed : 'msg t -> int
