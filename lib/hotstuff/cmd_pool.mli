(** One replica's command bookkeeping: which commands it has seen,
    which wait for its next proposal, and which have committed.

    Each command is named by an integer key, derived once by the
    caller; distinct commands must have distinct keys. The proposal
    queue is a FIFO whose committed entries are dropped lazily: a
    commit marks the key, and {!take} skips it later. The queue is
    compacted whenever stale entries outnumber live ones, so
    {!queue_length} stays at most twice {!live}. *)

type 'cmd t

val create : unit -> 'cmd t

(** [submit t key cmd] queues [cmd] unless [key] was seen before
    (queued, proposed or committed); returns whether it was queued. *)
val submit : 'cmd t -> int -> 'cmd -> bool

(** [commit t key] marks [key] committed (queued or not); returns
    whether it was not committed before. *)
val commit : 'cmd t -> int -> bool

(** [take t k] dequeues up to [k] of the oldest live commands, returned
    newest-first. *)
val take : 'cmd t -> int -> 'cmd list

(** Queued commands not yet committed or taken. *)
val live : 'cmd t -> int

(** Physical queue length, stale entries included. *)
val queue_length : 'cmd t -> int (* lint: allow S005 bounded-state probe for test_hotstuff *)
