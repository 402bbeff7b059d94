type env = {
  self : int;
  n : int;
  f : int;
  delta_us : int;
  clock_read : unit -> int;
  validate : Types.proposal -> seq_obs:int -> bool;
  verify_init :
    Types.iid -> Types.proposal -> Crypto.Schnorr.signature option -> bool;
  verify_vote_share :
    digest:string -> src:int -> Crypto.Threshold.share option -> bool;
  make_vote_share : digest:string -> Crypto.Threshold.share option;
  make_deliver_proof :
    digest:string ->
    Crypto.Threshold.share list ->
    Crypto.Threshold.combined option;
  check_deliver : Types.proposal -> Crypto.Threshold.combined option -> bool;
  broadcast : Types.body -> unit;
  schedule : delay_us:int -> (unit -> unit) -> unit;
  observe_vote : Types.iid -> src:int -> seq_obs:int -> unit;
  on_vvb_deliver : Types.iid -> unit;
  on_decide :
    Types.iid -> value:int -> round:int -> Types.proposal option -> unit;
}

(* The Vote_one senders for one digest. An honest instance holds one
   bucket, two under an equivocating proposer; each further bucket
   costs a Byzantine voter one message. *)
type vote_bucket = {
  digest : string;
  voters : Dbft.Senders.t;
  mutable shares : Crypto.Threshold.share list;
}

type t = {
  env : env;
  iid : Types.iid;
  created_at : int;  (** engine time of first contact *)
  (* --- VVB state (round 1) --- *)
  mutable proposal : Types.proposal option;
  mutable requested : int option;  (** [proposal]'s requested seq *)
  mutable init_seen : bool;
  mutable seq_obs : int option;
  mutable vote1 : vote_bucket list;
  vote0_from : Dbft.Senders.t;
  mutable sent_vote0 : bool;
  mutable voted_digest : string option;  (** digest our Vote_one endorsed *)
  mutable delivered1 : bool;
  mutable delivered0 : bool;
  mutable deliver_sent : bool;
  mutable deliver_proof : Crypto.Threshold.combined option;
      (** kept for lossy-link retransmission ({!poke}) *)
  rounds : Dbft.Rounds.t;  (** Alg. 3; round 1's values are the VVB's *)
}

let create env iid ~created_at =
  {
    env;
    iid;
    created_at;
    proposal = None;
    requested = None;
    init_seen = false;
    seq_obs = None;
    vote1 = [];
    vote0_from = Dbft.Senders.create env.n;
    sent_vote0 = false;
    voted_digest = None;
    delivered1 = false;
    delivered0 = false;
    deliver_sent = false;
    deliver_proof = None;
    rounds = Dbft.Rounds.create ~self:env.self ~n:env.n ~delta_us:env.delta_us;
  }

let decided t = Dbft.Rounds.decided t.rounds

let decision_round t = Dbft.Rounds.decision_round t.rounds

let proposal t = t.proposal

let requested_seq t = t.requested

(* Every write of [proposal] goes through here, so [requested] always
   belongs to the proposal beside it. *)
let set_proposal t p =
  t.proposal <- p;
  t.requested <-
    (match p with
    | Some p -> Types.requested_seq ~n:t.env.n ~f:t.env.f p.Types.st
    | None -> None)

let seq_obs t = t.seq_obs

let halted t = Dbft.Rounds.halted t.rounds

let idle t = Dbft.Rounds.idle t.rounds

let created_at t = t.created_at

let my_digest t = Option.map Types.proposal_digest t.proposal

(* Alg. 3's rounds, with EST(1) carrying the proposal. *)
module Rounds = Dbft.Rounds.Make (struct
  type nonrec h = t

  let rounds t = t.rounds

  let bin1 t b = if b = 1 then t.delivered1 else t.delivered0

  let send_est t ~round value =
    let proposal = if value = 1 then t.proposal else None in
    t.env.broadcast (Types.Est { iid = t.iid; round; value; proposal })

  let send_coord t ~round value =
    t.env.broadcast (Types.Coord { iid = t.iid; round; value })

  let send_aux t ~round values =
    t.env.broadcast (Types.Aux { iid = t.iid; round; values })

  let schedule t ~delay_us fn = t.env.schedule ~delay_us fn

  let decide t ~round value =
    t.env.on_decide t.iid ~value ~round (if value = 1 then t.proposal else None)
end)

(* ------------------------------------------------------------------ *)
(* VVB (Alg. 1): round 1 with validation.                              *)
(* ------------------------------------------------------------------ *)

let broadcast_vote1 t ~digest ~seq_obs =
  let share = t.env.make_vote_share ~digest in
  t.env.broadcast
    (Types.Vote { iid = t.iid; vote = Types.Vote_one { digest; share; seq_obs } })

let broadcast_vote0 t =
  let seq_obs = match t.seq_obs with Some s -> s | None -> t.env.clock_read () in
  t.env.broadcast (Types.Vote { iid = t.iid; vote = Types.Vote_zero { seq_obs } })

let vote_zero t =
  if not t.sent_vote0 then begin
    t.sent_vote0 <- true;
    broadcast_vote0 t
  end

(* Every first contact with the instance starts round 1 and its expiry
   timer: E = 2Δ (Alg. 1 line 6), which also covers the missing-INIT
   case so that every process that heard of the instance eventually
   votes. A halted instance (its decision forced) starts nothing. *)
let ensure_started t =
  if not (Dbft.Rounds.started t.rounds || halted t) then begin
    Rounds.start t;
    t.env.schedule ~delay_us:(2 * t.env.delta_us) (fun () ->
        if (not (halted t)) && (not t.delivered1) && not t.delivered0 then
          vote_zero t)
  end

(* A loop rather than [List.find_opt], which would allocate a closure
   per vote. *)
let rec find_bucket digest = function
  | [] -> None
  | b :: rest -> if String.equal b.digest digest then Some b else find_bucket digest rest

let vote_bucket t digest =
  match find_bucket digest t.vote1 with
  | Some b -> b
  | None ->
      let b = { digest; voters = Dbft.Senders.create t.env.n; shares = [] } in
      t.vote1 <- b :: t.vote1;
      b

(* Deliver (1, m): combine the shares into a transferable proof and
   propagate it so every correct process delivers (VVB-Uniformity). *)
let deliver_one t proof =
  if not t.delivered1 then begin
    t.delivered1 <- true;
    t.deliver_proof <- proof;
    (* Phase milestone: the VVB layer has delivered (1, m) locally —
       the boundary between broadcast and binary consensus in the
       latency anatomy. *)
    t.env.on_vvb_deliver t.iid;
    (match (t.proposal, t.deliver_sent) with
    | Some proposal, false ->
        t.deliver_sent <- true;
        t.env.broadcast (Types.Deliver { iid = t.iid; proposal; proof })
    | _ -> ());
    Rounds.on_round1 t
  end

let check_quorum_one t =
  match my_digest t with
  | None -> ()
  | Some digest -> (
      match find_bucket digest t.vote1 with
      | Some bucket
        when Dbft.Senders.count bucket.voters >= t.env.n - t.env.f && not t.delivered1
        ->
          let proof = t.env.make_deliver_proof ~digest bucket.shares in
          deliver_one t proof
      | Some _ | None -> ())

let on_init t ~src proposal sigma =
  if
    Int.equal src t.iid.Types.proposer
    && Types.iid_equal proposal.Types.batch.Types.iid t.iid
    && not t.init_seen
  then begin
    t.init_seen <- true;
    ensure_started t;
    (* Perceived sequence number: clock at first receipt of c_t. *)
    let seq_obs =
      match t.seq_obs with
      | Some s -> s
      | None ->
          let s = t.env.clock_read () in
          t.seq_obs <- Some s;
          s
    in
    if t.proposal = None then set_proposal t (Some proposal);
    let valid =
      t.env.verify_init t.iid proposal sigma && t.env.validate proposal ~seq_obs
    in
    if valid && t.voted_digest = None then begin
      let digest = Types.proposal_digest proposal in
      t.voted_digest <- Some digest;
      broadcast_vote1 t ~digest ~seq_obs
    end
    else if not valid then vote_zero t;
    (* A vote for our own digest may already hold a quorum. *)
    check_quorum_one t;
    Rounds.on_round1 t
  end

let on_vote t ~src vote =
  ensure_started t;
  (match vote with
  | Types.Vote_one { seq_obs; _ } | Types.Vote_zero { seq_obs } ->
      t.env.observe_vote t.iid ~src ~seq_obs);
  match vote with
  | Types.Vote_one { digest; share; seq_obs = _ } ->
      let bucket = vote_bucket t digest in
      if
        (not (Dbft.Senders.mem bucket.voters src))
        && t.env.verify_vote_share ~digest ~src share
      then begin
        ignore (Dbft.Senders.add bucket.voters src : bool);
        (match share with
        | Some sh -> bucket.shares <- sh :: bucket.shares
        | None -> ());
        check_quorum_one t
      end
  | Types.Vote_zero _ ->
      if Dbft.Senders.add t.vote0_from src then begin
        let count = Dbft.Senders.count t.vote0_from in
        (* Relay after f+1 zeros (lines 19–20). *)
        if count >= t.env.f + 1 then vote_zero t;
        if count >= t.env.n - t.env.f && not t.delivered0 then begin
          t.delivered0 <- true;
          Rounds.on_round1 t
        end
      end

let on_deliver t ~src:_ proposal proof =
  ensure_started t;
  if Types.iid_equal proposal.Types.batch.Types.iid t.iid && t.env.check_deliver proposal proof
  then begin
    if t.proposal = None then set_proposal t (Some proposal);
    (* Only the quorum-certified proposal can be delivered with 1; a
       diverging local proposal (equivocating broadcaster) is replaced
       for output purposes — our own vote is already cast and counted
       under the old digest, preserving VVB-Unicity. *)
    (match my_digest t with
    | Some d when not (String.equal d (Types.proposal_digest proposal)) ->
        set_proposal t (Some proposal)
    | _ -> ());
    deliver_one t proof
  end

let on_est t ~src ~round ~value proposal =
  ensure_started t;
  (* A late adopter takes m from EST(1) of a round the machine accepts. *)
  (if value = 1 && t.proposal = None && round >= 2 && round <= Dbft.Rounds.max_rounds
   then set_proposal t proposal);
  Rounds.on_est t ~src ~round value

let on_coord t ~src ~round ~value =
  ensure_started t;
  Rounds.on_coord t ~src ~round value

let on_aux t ~src ~round ~values =
  ensure_started t;
  Rounds.on_aux t ~src ~round values

(* The VVB is over: INIT, votes and DELIVER change nothing any more,
   bar the distance sample a vote carries. *)
let close_vvb t =
  t.init_seen <- true;
  t.sent_vote0 <- true;
  t.delivered1 <- true;
  t.delivered0 <- true;
  t.deliver_sent <- true

let revive env iid ~created_at ~value ~decision_round ~round proposal =
  let t =
    {
      (create env iid ~created_at) with
      rounds =
        Dbft.Rounds.deferred ~self:env.self ~n:env.n ~delta_us:env.delta_us ~value
          ~decision_round ~round;
    }
  in
  set_proposal t proposal;
  close_vvb t;
  t

(* ------------------------------------------------------------------ *)
(* Lossy-link repair.                                                  *)
(* ------------------------------------------------------------------ *)

(* Re-broadcast every message this process has already contributed to
   the still-undecided protocol state. All receiver paths deduplicate
   by sender (vote buckets, BV echo sets, AUX slots), so retransmission
   is idempotent: it only matters to peers whose first copy a lossy
   link dropped. Never called on a healthy run (the sweep only fires
   for instances undecided past the retransmission patience). *)
let poke t =
  if Dbft.Rounds.started t.rounds && not (halted t) then begin
    (if t.delivered1 then begin
       match t.proposal with
       | Some proposal when t.deliver_sent ->
           t.env.broadcast
             (Types.Deliver { iid = t.iid; proposal; proof = t.deliver_proof })
       | _ -> ()
     end
     else begin
       (match (t.voted_digest, t.seq_obs) with
       | Some digest, Some seq_obs -> broadcast_vote1 t ~digest ~seq_obs
       | _ -> ());
       if t.sent_vote0 then broadcast_vote0 t
     end);
    Rounds.resend t
  end

(* Adopt a decision learned outside the instance's own message flow:
   either f+1 matching Decided notices, or an output-log sync that
   proves the cluster committed (value 1) this instance. The VVB closes
   as in [revive]: a late vote quorum or DELIVER then sends nothing. *)
let force_decide t ~value proposal =
  if decided t = None then begin
    (match proposal with
    | Some _ when t.proposal = None -> set_proposal t proposal
    | _ -> ());
    Dbft.Rounds.force_decide t.rounds value;
    close_vvb t;
    t.env.on_decide t.iid ~value ~round:(Dbft.Rounds.round t.rounds) proposal
  end
