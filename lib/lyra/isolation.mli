(** The quorum-contact check behind isolation probation (see
    [Node]): has this node heard from a quorum, itself included,
    within the last {!Config.isolation_gap_us}? *)

type t

(** [create ~n ~id ~quorum] for node [id] of [n]; no peer heard yet
    (every peer counts as heard at time 0). *)
val create : n:int -> id:int -> quorum:int -> t

(** [receive t ~src ~now] records a message from [src] at [now] and
    answers the check. [now] must not decrease between calls. Equal,
    call for call, to counting the peers whose last message is at most
    the gap old; the count is only redone once [now] passes the time
    the last count proved the quorum heard until. *)
val receive : t -> src:int -> now:int -> bool
