(** The Fig. 1 front-running attack.

    Setting: Alice operates the Tokyo node and submits a victim
    transaction. Mallory operates the Singapore node; the voting
    majority sits in Sydney (Carole et al.). The Tokyo → Sydney path
    has a routing detour, so
    Tokyo → Singapore → Sydney beats it (triangle-inequality
    violation, {!Sim.Regions}).

    Against Pompē, Mallory (i) reads the victim payload the moment the
    cleartext Order_req reaches her, (ii) withholds her timestamp for
    the victim so the victim's 2f+1 quorum is dominated by the distant
    Sydney clocks, and (iii) immediately submits her own dependent
    transaction, whose Singapore-anchored timestamps yield a lower
    median. The attack succeeds when her transaction is sequenced (and
    executed) before the victim's.

    Against plain HotStuff SMR the payload is equally readable in
    flight — and there is not even an ordering phase to subvert: the
    leader orders whatever arrives first.

    Against Lyra, step (i) is already impossible: the payload is
    obfuscated until committed, so she never learns there is anything
    worth front-running; and the prediction/validation mechanism
    rejects manipulated sequence numbers.

    The scenario itself is protocol-generic: the same attacker logic
    runs against any {!Protocol.NODE}; {!run} selects the baseline by
    registry name. *)

(** Node placement of the scenario (index 0 = Tokyo victim, 1 =
    Singapore attacker, 2–4 = Sydney quorum); shared with
    {!Sandwich}. *)
val regions : Sim.Regions.t array

type outcome = {
  trials : int;
  observed : int;  (** attacker could read the victim payload in flight *)
  launched : int;  (** attacker submitted a dependent transaction *)
  succeeded : int;  (** attacker's tx executed before the victim's *)
  victim_first_gap_ms : float;  (** mean execution gap (victim − attacker) *)
}

val pp_outcome : Format.formatter -> outcome -> unit

(** [cluster ~withhold protocol] is the attack cluster of [protocol] on
    {!regions}, shared with {!Sandwich}: 8-transaction batches, a
    10 ms batch timeout (20 ms rounds for the DAG), no clock offsets.
    Under Pompē the Singapore attacker (node 1) withholds its
    timestamp for every batch [withhold] picks. Raises
    [Invalid_argument] on an unknown protocol. *)
val cluster :
  withhold:(Lyra.Types.batch -> bool) -> string -> (module Protocol.NODE)

(** Protocols this attack can target ({!Protocol.Registry.names}). *)
val protocols : string list

(** [run ~trials ~protocol ()] replays the attack against [protocol]
    with varying seeds. *)
val run : ?seed:int64 -> trials:int -> protocol:string -> unit -> outcome
