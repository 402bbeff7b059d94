(** Lyra's recovery stack: what keeps the Commit protocol (Alg. 4)
    live and prefix-safe through crashes, partitions and lossy links,
    beyond what the paper's steady state retransmits.

    - {b Gossip claims.} An entry a peer gossips as accepted, and this
      node has not decided, holds this node's takes at and above its
      seq until it is decided here ({!claims_block}).
    - {b Log sync.} A node whose log lags the (f+1)-th highest claimed
      log length pauses emission and pulls the missing slice from a
      peer claiming it ([Sync_req]/[Sync_resp]).
    - {b Patience watchdog.} Outside probation, a sync starts only once
      the lag has lasted {!Config.sync_patience_us} with no local
      emission.
    - {b Isolation probation.} After a crash, or whenever fewer than a
      quorum of peers were heard within {!Config.isolation_gap_us}, any
      lag starts the sync at once.
    - {b Nudge/Decided.} A node stuck on an instance broadcasts
      [Nudge]; peers answer [Decided]; f+1 matching notices settle it.
    - {b Poke sweep.} Every instance still undecided past
      [retransmit_after_us] re-broadcasts its contribution and a Nudge.

    The module owns the recovery state and talks to its node through a
    {!host}: a record of closures the node builds once. The node keeps
    the commit and log state (records, outbox, instances, emission). *)

(** The node's view of one instance. *)
type view =
  | Absent  (** never contacted *)
  | Undecided
  | Decided of { value : int; proposal : Types.proposal option }
      (** [proposal]: the decided one when [value] is 1, if known *)

type host = {
  config : Config.t;
  self : int;
  now : unit -> int;  (** simulated µs *)
  crashed : unit -> bool;
  send : dst:int -> Types.body -> unit;
  broadcast : Types.body -> unit;
  schedule : delay_us:int -> (unit -> unit) -> unit;
  output_count : unit -> int;  (** entries emitted *)
  log_length : unit -> int;  (** entries taken, emitted or not *)
  accepted : Types.iid -> bool;  (** in the commit state's accepted set *)
  validated : Types.iid -> bool;  (** validated here and still pending *)
  instance : Types.iid -> view;
  contact : Types.iid -> view;
      (** as [instance], creating the instance on first contact *)
  poke : Types.iid -> unit;  (** {!Instance.poke} a live instance *)
  iter_undecided : (Types.iid -> created_at:int -> unit) -> unit;
      (** the live, undecided, unhalted instances in iid order, each
          checked when visited *)
  force_decide : Types.iid -> value:int -> Types.proposal option -> unit;
      (** adopt a decision for a live instance and retire it; a
          value-1 decision without a proposal keeps the instance's *)
  log_slice : from:int -> (Types.batch * int) list;
      (** at most {!Config.sync_batch} emitted entries from [from] *)
  unemitted_tail : unit -> (Types.iid * int) list;
      (** entries taken but not yet emitted, in commit order *)
  adopt : Types.batch -> seq:int -> bool;
      (** emit a synced entry in place of the local commit; [false],
          changing nothing, if this node already emitted it *)
  resume : unit -> unit;  (** commit, emit and propose after a sync *)
}

type t

val create : host -> t

(** The first 64 elements: the claims sent in one heartbeat or one
    [Sync_resp] tail, and the most read from one. *)
val capped : 'a list -> 'a list

(** [on_status t ~src ~now status] reads a received status: the
    isolation check, the peer's log-length claim, its gossip claims
    (the first 64), and in probation a sync start. *)
val on_status : t -> src:int -> now:int -> Types.status -> unit

(** A heartbeat's log-length claim, for the sync's goal. *)
val on_heartbeat : t -> src:int -> committed:int -> unit

(** [claims_block t boundary] walks the booked claims in iid order:
    whether one at or below [boundary] holds takes. Nudges the ones
    held past L and expires uncorroborated ones past 2L. *)
val claims_block : t -> int -> bool

(** Drops a booked claim: the instance was validated here. *)
val unbook : t -> Types.iid -> unit

(** Drops every claim and Decided tally of a decided instance. *)
val forget : t -> Types.iid -> unit

(** Whether a sync is in flight; emission pauses meanwhile. *)
val syncing : t -> bool

(** The heartbeat tick of the patience watchdog. *)
val tick : t -> unit

(** Opens probation: the node just recovered from a crash. *)
val on_recover : t -> unit

(** Runs the poke sweep now and every [retransmit_interval_us]. *)
val sweep : t -> unit

val on_nudge : t -> src:int -> Types.iid -> unit

val on_decided :
  t -> src:int -> Types.iid -> value:int -> Types.proposal option -> unit

val on_sync_req : t -> src:int -> from_count:int -> unit

val on_sync_resp :
  t ->
  src:int ->
  from_count:int ->
  upto:int ->
  (Types.batch * int) list ->
  (Types.iid * int) list ->
  unit

(** Probes. *)

val booked : t -> int  (** claims booked against the commit *)

val synced_entries : t -> int

val syncs_started : t -> int

val tallies : t -> int  (** Decided tallies held *)
