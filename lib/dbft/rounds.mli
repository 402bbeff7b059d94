(** The DBFT round machine (Crain, Gramoli, Larrea & Raynal [8], Alg. 3
    lines 36–50), shared by the DBFT substrate ({!Binary_consensus})
    and Lyra's BOC instances: per round a {!Bv_broadcast} of the
    estimates, a weak coordinator, and an AUX exchange preferring the
    coordinator's value; n − f AUX sets inside bin_values decide (a
    single value matching the round parity) or set the next estimate.

    Round 1's Δ timer fires at once, so AUX leaves as soon as a value is
    delivered (DESIGN §7.1). Help rounds are reactive: a decided process
    defers round r+1 until a peer shows activity in it (§7.2). Round 1's
    bin_values are the host's ([HOST.bin1]: Lyra's VVB, or the
    substrate's own round-1 BV), and the host calls {!Make.on_round1}
    when they grow. Messages naming a round outside 1..{!max_rounds} or
    a value outside {0, 1} are ignored, so peers cannot make a process
    allocate round state at will. *)

val max_rounds : int

(** One process's rounds in one consensus instance. *)
type t

val create : self:int -> n:int -> delta_us:int -> t

(** Whether {!Make.start} has run. *)
val started : t -> bool

(** Current round (1-based). *)
val round : t -> int

val decided : t -> int option

val decision_round : t -> int option

(** No round will run any more: the help rounds are over,
    {!max_rounds} is reached, or the decision was forced. *)
val halted : t -> bool

(** [deferred ~self ~n ~delta_us ~value ~decision_round ~round] is the
    state of a process that decided [value] in [decision_round] and
    defers help round [round] with no state for it: what {!idle}
    reports as [Some round]. *)
val deferred :
  self:int ->
  n:int ->
  delta_us:int ->
  value:int ->
  decision_round:int ->
  round:int ->
  t

(** [Some r] once decided and waiting on its peers alone: [Some 0] when
    halted, [Some r] when deferring help round [r] with no state for it
    yet, so that only a peer's message of round [r] runs a round again.
    [None] while undecided, inside [HOST.decide] (the deciding round is
    still current) or while a help round runs. *)
val idle : t -> int option

(** [force_decide t v] records a decision learned out of band in the
    current round and halts; no-op if decided. [HOST.decide] does not
    fire: the host reports it. *)
val force_decide : t -> int -> unit

(** The host builds and sends the messages, schedules timers, and hears
    the decision ([decide] fires once). *)
module type HOST = sig
  type h
  val rounds : h -> t
  val bin1 : h -> int -> bool
  val send_est : h -> round:int -> int -> unit
  val send_coord : h -> round:int -> int -> unit
  val send_aux : h -> round:int -> int list -> unit
  val schedule : h -> delay_us:int -> (unit -> unit) -> unit
  val decide : h -> round:int -> int -> unit
end

module Make (H : HOST) : sig
  (** Enter round 1 (idempotent). *)
  val start : H.h -> unit

  val on_round1 : H.h -> unit

  (** EST of a round ≥ 2; round 1's ESTs are the host's. *)
  val on_est : H.h -> src:int -> round:int -> int -> unit

  val on_coord : H.h -> src:int -> round:int -> int -> unit

  val on_aux : H.h -> src:int -> round:int -> int list -> unit

  (** Re-send the current round's EST (rounds ≥ 2), COORD and AUX as far
      as already sent, for peers behind a lossy link. *)
  val resend : H.h -> unit
end
