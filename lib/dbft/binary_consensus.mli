(** DBFT leaderless binary Byzantine consensus (Crain, Gramoli, Larrea
    & Raynal [8]) over the simulated network.

    This is the substrate protocol that Lyra modifies (§IV): Lyra
    replaces the round-1 Binary Value Broadcast with its Validating
    Value Broadcast. Both run the same round machine, {!Rounds}; this
    module is its network host (messages, registration, the round-1 BV
    and {!propose}). One [t] is one replica in one instance. *)

type msg

(** Wire size in bytes of a message (for the NIC model). *)
val msg_size : msg -> int

type t

(** [create net ~id ~delta_us ~on_decide ()] registers replica [id] on
    [net] (which must carry [msg] values). [on_decide ~round v] fires
    exactly once, when this replica decides [v] in [round]. *)
val create :
  msg Sim.Network.t ->
  id:int ->
  delta_us:int ->
  on_decide:(round:int -> int -> unit) ->
  unit ->
  t

(** [propose t b] inputs the replica's binary proposal (0 or 1). *)
val propose : t -> int -> unit
