(** One replica's command bookkeeping: which commands it has seen,
    which wait for its next proposal, and which have committed.

    Each command is named by its id, computed once by the caller. The
    proposal queue is a FIFO whose committed entries are dropped
    lazily: a commit marks the id, and {!take} skips it later. The
    queue is compacted whenever stale entries outnumber live ones, so
    {!queue_length} stays at most twice {!live}. *)

type 'cmd t

val create : unit -> 'cmd t

(** [submit t id cmd] queues [cmd] unless [id] was seen before (queued,
    proposed or committed); returns whether it was queued. *)
val submit : 'cmd t -> string -> 'cmd -> bool

(** [commit t id] marks [id] committed (queued or not); returns whether
    it was not committed before. *)
val commit : 'cmd t -> string -> bool

(** [take t k] dequeues up to [k] of the oldest live commands, returned
    newest-first. *)
val take : 'cmd t -> int -> (string * 'cmd) list

(** Queued commands not yet committed or taken. *)
val live : 'cmd t -> int

(** Physical queue length, stale entries included. *)
val queue_length : 'cmd t -> int
