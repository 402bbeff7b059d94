(** Per-batch milestone tracker over a fixed, ordered set of named
    phase-latency recorders.

    Used by protocol nodes to break end-to-end latency into its
    pipeline phases (the paper's Fig. "anatomy of a transaction"). A
    node declares its spans as [(label, from, to)] milestone triples,
    opens an entry per own batch with {!start} and calls {!stamp} once
    per milestone it reaches; the tracker records each span, in
    milliseconds, under its label. *)

type t

(** Where a tracker reports its events, set once at creation:
    [mark milestone key] when {!start} opens an entry (the milestone is
    the first declared one), [span label ~from_us] for every recorded
    span, which ends now. *)
type sink = { mark : string -> int -> unit; span : string -> from_us:int -> unit }

(** A sink that discards everything. *)
val no_sink : sink

(** [create ~sink spans] — the label set and its order are fixed for
    the lifetime of the value. Milestones are ordered by first
    appearance in [spans]: the first is stamped by {!start}, the last
    closes an entry. Raises [Invalid_argument] on an empty list. *)
val create : sink:sink -> (string * string * string) list -> t

(** [start t ~key ~now] opens (or reopens) the entry [key] with its
    first milestone stamped at [now]. *)
val start : t -> key:int -> now:int -> unit

(** [stamp t ~key milestone ~now] — the first stamp of a milestone
    wins; later ones, and stamps of a key with no open entry, do
    nothing. Records every span that ends at [milestone] and whose
    start was stamped, in declared order, as [(now - start) / 1000]
    ms. The last milestone closes the entry. Raises [Invalid_argument]
    on an unknown milestone. *)
val stamp : t -> key:int -> string -> now:int -> unit

(** [drop t ~key] closes the entry [key] without recording anything. *)
val drop : t -> key:int -> unit

(** Keys of the open entries, ascending. *)
(* lint: allow S005 bounded-state probe for test_trace and test_metrics_workload *)
val open_keys : t -> int list

(** Label/recorder pairs in creation order. *)
val pairs : t -> (string * Recorder.t) list
