(** Pure state of the Commit protocol (Alg. 4): tracks the peers'
    locally-locked prefixes and pending lows, the accepted set, and
    derives the globally locked, stable and committed prefixes
    (Definitions 10–12).

    Byzantine processes may report artificially low values to stall
    the prefixes; following lines 83 and 85, both [locked] and the
    pending bound are computed from the 2f + 1 *highest* reported
    values, which at most f Byzantine reports cannot drag down. *)

type t

val create : n:int -> f:int -> t

(** [peer_status t ~peer ~locked ~min_pending] folds in a received
    status (Alg. 4 lines 79–81). Values regress-protected: stale
    (lower) reports from a peer are ignored, except [min_pending],
    which may legitimately move both ways and is overwritten. *)
val peer_status : t -> peer:int -> locked:int -> min_pending:int -> unit

(** [add_accepted t iid ~seq] records a transaction accepted by BOC
    (idempotent). *)
val add_accepted : t -> Types.iid -> seq:int -> unit

val is_accepted : t -> Types.iid -> bool

(** Φ(locked): lowest of the 2f+1 highest locally-locked values. *)
val locked : t -> int (* lint: allow S005 commit state probe for the commit-model tests *)

(** Φ(stable) = min(locked, lowest of the 2f+1 highest min-pendings). *)
val stable : t -> int (* lint: allow S005 commit state probe for the commit-model tests *)

(** Φ(committed): highest accepted sequence number ≤ stable (monotone). *)
val committed : t -> int

(** [take_committable t] removes and returns the accepted entries with
    seq ≤ committed, ordered by (seq, proposer, index) — the
    commit-txs of line 91. Call once the pending check (line 90) has
    passed. *)
val take_committable : t -> (Types.iid * int) list

(** Highest sequence number actually appended to the local log (by
    {!take_committable} or {!note_committed}). Lags {!committed} while
    a pending entry blocks takes — the reference point for deciding
    whether a late decision really arrived after its place in the log
    was given away. *)
val taken_upto : t -> int

(** Lowest seq among the accepted entries not yet taken;
    {!Types.no_pending} if there is none. {!take_committable} takes
    something exactly when this is at most {!committed}. *)
val lowest_untaken : t -> int

(** [note_committed t iid ~seq] records an entry learned through an
    output-log sync rather than a local decision: it enters the
    accepted set directly as committed (bypassing [pending_commit]) and
    advances the committed boundary to at least [seq], so a later local
    decision for an already-synced instance cannot re-commit it.
    Idempotent against both prior syncs and prior local commits. *)
val note_committed : t -> Types.iid -> seq:int -> unit

(** Accepted entries not yet committed, for status gossip (the recent
    window of A). *)
val accepted_recent : t -> (Types.iid * int) list

(** Total accepted so far (committed or not). *)
val accepted_count : t -> int
