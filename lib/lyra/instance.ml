type env = {
  self : int;
  n : int;
  f : int;
  delta_us : int;
  max_rounds : int;
  clock_read : unit -> int;
  validate : Types.proposal -> seq_obs:int -> bool;
  verify_init : Types.proposal -> Crypto.Schnorr.signature option -> bool;
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
  observe_vote : src:int -> seq_obs:int -> unit;
  on_vvb_deliver : unit -> unit;
  on_decide : value:int -> round:int -> Types.proposal option -> unit;
}

type vote_bucket = {
  voters : bool array;
  mutable count : int;
  mutable shares : Crypto.Threshold.share list;
}

type round_state = {
  bv : Dbft.Bv_broadcast.t option;  (** None in round 1 (VVB instead) *)
  mutable bin1 : bool;  (** rounds ≥ 2: mirror of bv deliveries *)
  mutable bin0 : bool;
  aux : int list option array;
  mutable aux_count : int;  (** filled [aux] slots *)
  mutable coord_value : int option;
  mutable coord_sent : bool;
  mutable timer_started : bool;
  mutable timer_fired : bool;
  mutable aux_sent : bool;
  mutable activity : bool;  (** messages buffered for this round *)
}

type t = {
  env : env;
  iid : Types.iid;
  (* --- VVB state (round 1) --- *)
  mutable proposal : Types.proposal option;
  mutable init_seen : bool;
  mutable seq_obs : int option;
  vote1 : (string, vote_bucket) Hashtbl.t;
  vote0_from : bool array;
  mutable vote0_count : int;
  mutable sent_vote1 : bool;
  mutable sent_vote0 : bool;
  mutable voted_digest : string option;  (** digest our Vote_one endorsed *)
  mutable delivered1 : bool;
  mutable delivered0 : bool;
  mutable deliver_sent : bool;
  mutable deliver_proof : Crypto.Threshold.combined option;
      (** kept for lossy-link retransmission ({!poke}) *)
  mutable expire_started : bool;
  (* --- DBFT rounds --- *)
  rounds : round_state Types.Int_tbl.t;
  mutable current : int;
  mutable est : int;
  mutable started : bool;
  mutable decided : int option;
  mutable decision_round : int option;
  mutable halted : bool;
}

let create env iid =
  {
    env;
    iid;
    proposal = None;
    init_seen = false;
    seq_obs = None;
    vote1 = Hashtbl.create 4;
    vote0_from = Array.make env.n false;
    vote0_count = 0;
    sent_vote1 = false;
    sent_vote0 = false;
    voted_digest = None;
    delivered1 = false;
    delivered0 = false;
    deliver_sent = false;
    deliver_proof = None;
    expire_started = false;
    rounds = Types.Int_tbl.create 4;
    current = 1;
    est = 0;
    started = false;
    decided = None;
    decision_round = None;
    halted = false;
  }

let decided t = t.decided

let decision_round t = t.decision_round

let proposal t = t.proposal

let seq_obs t = t.seq_obs

let halted t = t.halted

let my_digest t = Option.map Types.proposal_digest t.proposal

(* ------------------------------------------------------------------ *)
(* Round machinery (Alg. 3).                                           *)
(* ------------------------------------------------------------------ *)

let rec round_state t r =
  match Types.Int_tbl.find_opt t.rounds r with
  | Some rs -> rs
  | None ->
      let bv =
        if r = 1 then None
        else
          Some
            (Dbft.Bv_broadcast.create ~n:t.env.n
               ~echo:(fun b ->
                 let proposal = if b = 1 then t.proposal else None in
                 t.env.broadcast
                   (Types.Est { iid = t.iid; round = r; value = b; proposal }))
               ~deliver:(fun b ->
                 let rs = round_state t r in
                 if b = 1 then rs.bin1 <- true else rs.bin0 <- true)
               ())
      in
      let rs =
        {
          bv;
          bin1 = false;
          bin0 = false;
          aux = Array.make t.env.n None;
          aux_count = 0;
          coord_value = None;
          coord_sent = false;
          timer_started = false;
          timer_fired = false;
          aux_sent = false;
          activity = false;
        }
      in
      Types.Int_tbl.replace t.rounds r rs;
      rs

let bin_has t r b =
  if r = 1 then if b = 1 then t.delivered1 else t.delivered0
  else
    let rs = round_state t r in
    if b = 1 then rs.bin1 else rs.bin0

(* [List.filter (bin_has t r) [ 0; 1 ]], answered with constant lists. *)
let bin_values t r =
  match (bin_has t r 0, bin_has t r 1) with
  | true, true -> [ 0; 1 ]
  | true, false -> [ 0 ]
  | false, true -> [ 1 ]
  | false, false -> []

let coordinator t r = r mod t.env.n

let rec arm_round_timer t r =
  let rs = round_state t r in
  if not rs.timer_started then begin
    rs.timer_started <- true;
    (* Round 1 takes the VVB fast path: AUX goes out as soon as a value
       is delivered, which yields the optimal 3-message-delay good case
       (Lemma 3). The Δ wait only helps later rounds, where it gives
       the weak coordinator's value time to arrive when estimates
       diverge. Safety never depends on the timer. *)
    if r = 1 then rs.timer_fired <- true
    else
      t.env.schedule ~delay_us:t.env.delta_us (fun () ->
          rs.timer_fired <- true;
          try_advance t r)
  end

and try_advance t r =
  if (not t.halted) && Int.equal r t.current && t.started then begin
    let rs = round_state t r in
    (* Weak coordinator: broadcast the first delivered value. *)
    (if Int.equal t.env.self (coordinator t r) && not rs.coord_sent then
       match bin_values t r with
       | w :: _ ->
           rs.coord_sent <- true;
           t.env.broadcast (Types.Coord { iid = t.iid; round = r; value = w })
       | [] -> ());
    (* AUX once the timer expired and something was delivered,
       prioritizing the coordinator's value (lines 40–42). *)
    let bin = bin_values t r in
    if (not rs.aux_sent) && rs.timer_fired && bin <> [] then begin
      rs.aux_sent <- true;
      let e =
        match rs.coord_value with
        | Some c when bin_has t r c -> [ c ]
        | Some _ | None -> bin
      in
      t.env.broadcast (Types.Aux { iid = t.iid; round = r; values = e })
    end;
    (* Decision: a quorum of AUX sets all inside bin_values (43–49).
       Fewer than n − f AUX sets cannot hold such a quorum, so the list
       is only built once enough have arrived. *)
    let need = t.env.n - t.env.f in
    match
      if rs.aux_count < need then None
      else
        Dbft.Quorums.aux_union ~need ~in_bin:(bin_has t r)
          (Array.to_list rs.aux |> List.filter_map (fun x -> x))
    with
    | None -> ()
    | Some union ->
        (match union with
        | [ v ] ->
            t.est <- v;
            if Int.equal v (r mod 2) && t.decided = None then begin
              t.decided <- Some v;
              t.decision_round <- Some r;
              t.env.on_decide ~value:v ~round:r
                (if v = 1 then t.proposal else None)
            end
        | _ -> t.est <- r mod 2);
        let help_over =
          match t.decision_round with
          | Some dr -> r >= dr + 2
          | None -> false
        in
        if help_over || r >= t.env.max_rounds then t.halted <- true
        else if t.decided = None then start_round t (r + 1)
        else begin
          (* Helping is reactive: a decided process keeps its estimate
             and joins round r+1 only when an undecided process
             initiates it (see join_round). In the good case nobody
             does, which removes the two help rounds' 2·O(n²) message
             overhead without giving up termination: the undecided
             process's round-(r+1) EST wakes the decided quorum up.
             Messages for r+1 may already be buffered (they can race
             the decision) — join immediately in that case. *)
          t.current <- r + 1;
          if (round_state t (r + 1)).activity then start_round t (r + 1)
        end
  end

and start_round t r =
  t.current <- r;
  let rs = round_state t r in
  (match rs.bv with
  | Some bv -> Dbft.Bv_broadcast.input bv t.est
  | None -> ());
  arm_round_timer t r;
  try_advance t r

(* A decided process that deferred its help round joins as soon as an
   undecided peer shows activity in the current round. *)
and join_round t r =
  if
    (not t.halted) && t.decided <> None && Int.equal r t.current
    && not (round_state t r).timer_started
  then start_round t r

(* ------------------------------------------------------------------ *)
(* VVB (Alg. 1): round 1 with validation.                              *)
(* ------------------------------------------------------------------ *)

let arm_expire t =
  if not t.expire_started then begin
    t.expire_started <- true;
    (* E = 2Δ (Alg. 1 line 6); also covers the missing-INIT case so
       that every process that heard of the instance eventually votes. *)
    t.env.schedule ~delay_us:(2 * t.env.delta_us) (fun () ->
        if (not t.halted) && (not t.delivered1) && not t.delivered0 then begin
          if not t.sent_vote0 then begin
            t.sent_vote0 <- true;
            let seq_obs =
              match t.seq_obs with Some s -> s | None -> t.env.clock_read ()
            in
            t.env.broadcast
              (Types.Vote { iid = t.iid; vote = Types.Vote_zero { seq_obs } })
          end
        end)
  end

(* Every first contact with the instance starts round 1's machinery. *)
let ensure_started t =
  if not t.started then begin
    t.started <- true;
    arm_round_timer t 1;
    arm_expire t
  end

let vote_bucket t digest =
  match Hashtbl.find_opt t.vote1 digest with
  | Some b -> b
  | None ->
      let b = { voters = Array.make t.env.n false; count = 0; shares = [] } in
      Hashtbl.replace t.vote1 digest b;
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
    t.env.on_vvb_deliver ();
    (match (t.proposal, t.deliver_sent) with
    | Some proposal, false ->
        t.deliver_sent <- true;
        t.env.broadcast (Types.Deliver { iid = t.iid; proposal; proof })
    | _ -> ());
    try_advance t 1
  end

let check_quorum_one t =
  match my_digest t with
  | None -> ()
  | Some digest -> (
      match Hashtbl.find_opt t.vote1 digest with
      | Some bucket when bucket.count >= t.env.n - t.env.f && not t.delivered1
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
    if t.proposal = None then t.proposal <- Some proposal;
    let valid =
      t.env.verify_init proposal sigma && t.env.validate proposal ~seq_obs
    in
    if valid && not t.sent_vote1 then begin
      t.sent_vote1 <- true;
      let digest = Types.proposal_digest proposal in
      t.voted_digest <- Some digest;
      let share = t.env.make_vote_share ~digest in
      t.env.broadcast
        (Types.Vote
           { iid = t.iid; vote = Types.Vote_one { digest; share; seq_obs } })
    end
    else if (not valid) && not t.sent_vote0 then begin
      t.sent_vote0 <- true;
      t.env.broadcast
        (Types.Vote { iid = t.iid; vote = Types.Vote_zero { seq_obs } })
    end;
    (* A vote for our own digest may already hold a quorum. *)
    check_quorum_one t;
    try_advance t 1
  end

let on_vote t ~src vote =
  ensure_started t;
  (match vote with
  | Types.Vote_one { seq_obs; _ } | Types.Vote_zero { seq_obs } ->
      t.env.observe_vote ~src ~seq_obs);
  match vote with
  | Types.Vote_one { digest; share; seq_obs = _ } ->
      let bucket = vote_bucket t digest in
      if
        (not bucket.voters.(src))
        && t.env.verify_vote_share ~digest ~src share
      then begin
        bucket.voters.(src) <- true;
        bucket.count <- bucket.count + 1;
        (match share with
        | Some sh -> bucket.shares <- sh :: bucket.shares
        | None -> ());
        check_quorum_one t
      end
  | Types.Vote_zero _ ->
      if not t.vote0_from.(src) then begin
        t.vote0_from.(src) <- true;
        t.vote0_count <- t.vote0_count + 1;
        (* Relay after f+1 zeros (lines 19–20). *)
        if t.vote0_count >= t.env.f + 1 && not t.sent_vote0 then begin
          t.sent_vote0 <- true;
          let seq_obs =
            match t.seq_obs with Some s -> s | None -> t.env.clock_read ()
          in
          t.env.broadcast
            (Types.Vote { iid = t.iid; vote = Types.Vote_zero { seq_obs } })
        end;
        if t.vote0_count >= t.env.n - t.env.f && not t.delivered0 then begin
          t.delivered0 <- true;
          try_advance t 1
        end
      end

let on_deliver t ~src:_ proposal proof =
  ensure_started t;
  if Types.iid_equal proposal.Types.batch.Types.iid t.iid && t.env.check_deliver proposal proof
  then begin
    if t.proposal = None then t.proposal <- Some proposal;
    (* Only the quorum-certified proposal can be delivered with 1; a
       diverging local proposal (equivocating broadcaster) is replaced
       for output purposes — our own vote is already cast and counted
       under the old digest, preserving VVB-Unicity. *)
    (match my_digest t with
    | Some d when not (String.equal d (Types.proposal_digest proposal)) ->
        t.proposal <- Some proposal
    | _ -> ());
    deliver_one t proof
  end

let on_est t ~src ~round ~value proposal =
  ensure_started t;
  if round >= 2 && (value = 0 || value = 1) then begin
    (round_state t round).activity <- true;
    join_round t round;
    (if value = 1 && t.proposal = None then
       match proposal with Some p -> t.proposal <- Some p | None -> ());
    let rs = round_state t round in
    match rs.bv with
    | Some bv ->
        Dbft.Bv_broadcast.on_est bv ~src value;
        try_advance t round
    | None -> ()
  end

let on_coord t ~src ~round ~value =
  ensure_started t;
  if Int.equal src (coordinator t round) && (value = 0 || value = 1) then begin
    if round >= 2 then (round_state t round).activity <- true;
    join_round t round;
    let rs = round_state t round in
    if rs.coord_value = None then rs.coord_value <- Some value;
    try_advance t round
  end

let on_aux t ~src ~round ~values =
  ensure_started t;
  if List.for_all (fun b -> b = 0 || b = 1) values then begin
    if round >= 2 then (round_state t round).activity <- true;
    join_round t round;
    let rs = round_state t round in
    if rs.aux.(src) = None then begin
      rs.aux.(src) <- Some values;
      rs.aux_count <- rs.aux_count + 1;
      try_advance t round
    end
  end

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
  if t.started && not t.halted then begin
    (if t.delivered1 then begin
       match t.proposal with
       | Some proposal when t.deliver_sent ->
           t.env.broadcast
             (Types.Deliver { iid = t.iid; proposal; proof = t.deliver_proof })
       | _ -> ()
     end
     else begin
       (match (t.voted_digest, t.seq_obs) with
       | Some digest, Some seq_obs when t.sent_vote1 ->
           let share = t.env.make_vote_share ~digest in
           t.env.broadcast
             (Types.Vote
                { iid = t.iid; vote = Types.Vote_one { digest; share; seq_obs } })
       | _ -> ());
       if t.sent_vote0 then begin
         let seq_obs =
           match t.seq_obs with Some s -> s | None -> t.env.clock_read ()
         in
         t.env.broadcast
           (Types.Vote { iid = t.iid; vote = Types.Vote_zero { seq_obs } })
       end
     end);
    let r = t.current in
    (if r >= 2 then
       let proposal = if t.est = 1 then t.proposal else None in
       t.env.broadcast
         (Types.Est { iid = t.iid; round = r; value = t.est; proposal }));
    let rs = round_state t r in
    (if rs.coord_sent then
       match bin_values t r with
       | w :: _ ->
           t.env.broadcast (Types.Coord { iid = t.iid; round = r; value = w })
       | [] -> ());
    if rs.aux_sent then begin
      let bin = bin_values t r in
      let e =
        match rs.coord_value with
        | Some c when bin_has t r c -> [ c ]
        | Some _ | None -> bin
      in
      if e <> [] then
        t.env.broadcast (Types.Aux { iid = t.iid; round = r; values = e })
    end
  end

(* Adopt a decision learned outside the instance's own message flow:
   either f+1 matching Decided notices, or an output-log sync that
   proves the cluster committed (value 1) this instance. *)
let force_decide t ~value proposal =
  if t.decided = None then begin
    (match proposal with
    | Some _ when t.proposal = None -> t.proposal <- proposal
    | _ -> ());
    t.decided <- Some value;
    t.decision_round <- Some t.current;
    t.halted <- true;
    t.env.on_decide ~value ~round:t.current proposal
  end
