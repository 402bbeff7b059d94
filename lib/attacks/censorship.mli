(** Byzantine-leader censorship (§I, §V-E).

    In leader-based protocols a Byzantine leader can omit transactions
    from the blocks it proposes; the victim's transaction is only
    included once an honest leader rotates in — "although the
    underlying DAG may resubmit a transaction t later, t has
    effectively been reordered" (§I, on Fino). Lyra is leaderless:
    every process runs its own BOC instances, so no single process can
    delay another's transaction; at most f Byzantine validators can
    vote 0, which a 2f+1 quorum absorbs.

    The experiment measures a victim transaction's commit latency under
    each leader-based baseline (Pompē, plain HotStuff) with a sweep of
    censoring-coalition sizes, versus Lyra with f Byzantine
    (vote-withholding) replicas. *)

(** Victim-transaction latency and how many victim transactions were
    *reordered* — executed after a transaction with a higher decided
    sequence number. *)
type measurement = { mean_ms : float; worst_ms : float; reordered : int }

type outcome = {
  n : int;
  byzantine : int;
  rows : (string * string * measurement) list;
      (** (protocol, setting, measurement). Leader-based protocols
          sweep 0, f, and n−1 censoring leaders: round-robin rotation
          bounds the damage of a small coalition (the victim waits at
          most for the next honest leader), but the delay grows with
          the coalition — the §I observation about leader-based
          protocols. Lyra sweeps 0 and f Byzantine nodes. *)
}

val run : ?seed:int64 -> n:int -> unit -> outcome
