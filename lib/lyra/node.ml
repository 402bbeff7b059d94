type output = { batch : Types.batch; seq : int; output_at : int }

(* An entry's reveal quorum, from its first share until it is emitted.
   Each share is checked once: on arrival when the cipher is held,
   else at decryption. *)
type reveal_state = {
  senders : Dbft.Senders.t;
  mutable checked : Crypto.Vss.checked_share list;
  mutable early : Crypto.Vss.decryption_share list;  (** before the cipher *)
}

type commit_record = {
  c_batch : Types.batch;
  c_prop : Types.proposal option;
      (** the decided proposal, for Decided answers once the instance
          is retired; [None] if a sync delivered the entry unseen *)
  c_seq : int;
  mutable emitted : bool;
}

(* An instance, or the tombstone of a retired one (DESIGN §7.19): its
   decision, and the help round a peer's message of which makes the
   node rebuild it ({!Dbft.Rounds.idle}; 0: none). *)
type slot =
  | Live of Instance.t
  | Retired of { value : int; decision_round : int; help_round : int }

type t = {
  config : Config.t;
  id : int;
  net : Types.msg Sim.Network.t;
  engine : Sim.Engine.t;
  clock : Ordering_clock.t;
  predictor : Predictor.t;
  commit : Commit_state.t;
  keys : Crypto.Keys.keypair option;
  dir : Crypto.Keys.directory option;
  vcache : Crypto.Verify_cache.t;  (** amortizes repeat verifications *)
  rng : Crypto.Rng.t;
  misbehavior : Misbehavior.t option;
  on_observe : Types.batch -> unit;
  on_output : output -> unit;
  instances : slot Types.Iid_tbl.t;
  mutable live_instances : int;
  inst_env : Instance.env Lazy.t;  (** shared by every instance *)
  (* Instances possibly still undecided, for the retransmission sweep:
     added at creation, removed on decision and, lazily, once halted. *)
  mutable unsettled : Types.Iid_set.t;
  own_sref : int Types.Int_tbl.t;  (** proposal index → s_ref *)
  (* Requested seqs of the instances validated here and not yet
     decided, ordered by iid like a sort of the bindings. *)
  mutable pending : int Types.Iid_map.t;
  shares_held : Crypto.Vss.decryption_share Types.Iid_tbl.t;
  reveals : reveal_state Types.Iid_tbl.t;
  records : commit_record Types.Iid_tbl.t;
  outbox : Types.iid Queue.t;  (** commit order; emitted when revealed *)
  log : Types.batch Output_log.t;  (** emitted entries, oldest first *)
  mempool : Mempool.t;
  mutable next_index : int;
  mutable inflight : int;
  mutable started : bool;
  mutable min_pending_dirty : bool;
  mutable min_pending_cache : int;
  recovery : Recovery.t Lazy.t;  (** lazy as its host holds [t]; forced in [create] *)
  mutable late_accepts : int;
  mutable own_accepted : int;
  mutable own_rejected : int;
  decide_rounds : Metrics.Recorder.t;
  phases : Metrics.Phases.t;  (** own proposal index → milestones *)
}

(* The latency anatomy of an own batch, as phase spans (ms):
   propose → VVB-deliver (1, m) → DBFT-decide 1 → take-committable
   (Reveal broadcast) → emit. [boc_decide] = propose → decide is the
   paper's headline BOC latency (3 one-way delays in the good case);
   [accept_wait] is the residual of the L acceptance window plus the
   stable-prefix wait; [e2e] is propose → emit. A value-0 decision or
   a log sync, which bypasses the reveal pipeline, drops the entry. *)
let phase_spans =
  [
    ("vvb_deliver", "propose", "deliver");
    ("dbft_decide", "deliver", "decide");
    ("boc_decide", "propose", "decide");
    ("accept_wait", "decide", "take");
    ("reveal", "take", "emit");
    ("e2e", "propose", "emit");
  ]

let config t = t.config

let output batch ~seq ~at = { batch; seq; output_at = at }

let output_log t = Output_log.to_list t.log output

let output_count t = Output_log.length t.log

let accepted_count t = Commit_state.accepted_count t.commit

let committed_seq t = Commit_state.committed t.commit

let recovery t = Lazy.force t.recovery

let pending_count t = Types.Iid_map.cardinal t.pending + Recovery.booked (recovery t)

let mempool_size t = Mempool.length t.mempool

let late_accepts t = t.late_accepts

let synced_entries t = Recovery.synced_entries (recovery t)

let syncs_started t = Recovery.syncs_started (recovery t)

let decide_rounds t = t.decide_rounds

let phases t = t.phases

let own_accepted t = t.own_accepted

let own_rejected t = t.own_rejected

let distances_known t = Predictor.known_count t.predictor

let live_instances t = t.live_instances

let decided_tallies t = Recovery.tallies (recovery t)

let f t = Config.f t.config

let supermajority t = Config.supermajority t.config

let is_byz t m =
  match t.misbehavior with Some m' -> Misbehavior.equal m' m | None -> false

(* ------------------------------------------------------------------ *)
(* Status piggybacking (Alg. 4 lines 74–78).                           *)
(* ------------------------------------------------------------------ *)

let min_pending_value t =
  if t.min_pending_dirty then begin
    t.min_pending_dirty <- false;
    t.min_pending_cache <- Types.Iid_map.fold (fun _ seq acc -> min acc seq) t.pending Types.no_pending
  end;
  t.min_pending_cache

(* The log length: every entry taken into the commit order, emitted or
   still waiting for its reveal, and every entry a sync delivered.
   Records are never removed. *)
let log_length t = Types.Iid_tbl.length t.records

(* The accepted-set list is heavy (up to 64 entries); riding it
   on every vote would serialize kilobytes per message on the NIC and
   collapse large clusters under synchronized waves. Scalars piggyback
   everywhere (they are what locked/stable need, Alg. 4 lines 83-86);
   the list itself rides the periodic heartbeat and holds only entries
   accepted but not yet taken. Older prefixes are never re-sent (the
   message-size reduction §V-C calls for): a node that missed them
   sees it in the log-length claim and repairs through the sync. *)
let build_status ?(full = false) t : Types.status =
  if is_byz t Misbehavior.Low_status then
    (* Lying low to stall prefixes (§VI-D); neutralized by the
       2f+1-highest rule. *)
    { locked_upto = 0; min_pending = 0; committed = 0; accepted_recent = [] }
  else
    {
      locked_upto = Ordering_clock.peek t.clock - Config.l_us t.config;
      min_pending = min_pending_value t;
      committed = log_length t;
      accepted_recent =
        (if full then Recovery.capped (Commit_state.accepted_recent t.commit) else []);
    }

let broadcast_body t body =
  Sim.Network.broadcast t.net ~src:t.id { status = build_status t; body }

let send_body t ~dst body =
  Sim.Network.send t.net ~src:t.id ~dst { status = build_status t; body }

(* ------------------------------------------------------------------ *)
(* Reveal and output (commit-reveal, §V-C lines 89–95).                *)
(* ------------------------------------------------------------------ *)

let reveal_state t iid =
  match Types.Iid_tbl.find_opt t.reveals iid with
  | Some r -> r
  | None ->
      let r = { senders = Dbft.Senders.create t.config.n; checked = []; early = [] } in
      Types.Iid_tbl.replace t.reveals iid r;
      r

let reveal_complete t iid =
  match Types.Iid_tbl.find_opt t.reveals iid with
  | None -> false
  | Some r -> Dbft.Senders.count r.senders >= supermajority t

(* Stamps a phase milestone of [iid] if it is an own batch. *)
let stamp_own t iid milestone =
  if Int.equal iid.Types.proposer t.id then
    Metrics.Phases.stamp t.phases ~key:iid.Types.index milestone
      ~now:(Sim.Engine.now t.engine)

(* Append one entry to the output log and announce it. *)
let emit t batch seq =
  let at = Sim.Engine.now t.engine in
  Output_log.append t.log batch ~seq ~at;
  t.on_output (output batch ~seq ~at)

(* Checks the shares that arrived before [cipher] did, once. *)
let check_early r cipher =
  match r.early with
  | [] -> ()
  | early ->
      r.checked <-
        List.rev_append
          (List.filter_map (Crypto.Vss.check_share cipher) early)
          r.checked;
      r.early <- []

(* Emit revealed batches in commit order only: the head of the outbox
   must be decryptable before anything behind it is output. While an
   output-log sync is in flight, emission pauses entirely: entries
   committed elsewhere during our outage must surface before anything
   we commit locally, or the prefix diverges (the compound-fault
   sweep in test_faults fails without the pause). *)
let rec drain_outbox t =
  if Recovery.syncing (recovery t) then ()
  else
  match Queue.peek_opt t.outbox with
  | None -> ()
  | Some iid -> (
      match Types.Iid_tbl.find_opt t.records iid with
      | None -> ()
      | Some rec_ when rec_.emitted ->
          ignore (Queue.pop t.outbox : Types.iid);
          drain_outbox t
      | Some rec_ ->
          if reveal_complete t iid then begin
            let decrypted =
              match rec_.c_batch.obf with
              | Types.Clear | Types.Structural -> true
              | Types.Vss cipher -> (
                  let r = reveal_state t iid in
                  check_early r cipher;
                  match Crypto.Vss.decrypt_checked cipher r.checked with
                  | Some _payload -> true
                  | None -> false)
            in
            if decrypted then begin
              rec_.emitted <- true;
              Types.Iid_tbl.remove t.reveals iid;
              ignore (Queue.pop t.outbox : Types.iid);
              stamp_own t iid "emit";
              emit t rec_.c_batch rec_.c_seq;
              drain_outbox t
            end
          end)

(* A share for an entry already emitted is dropped unchecked: nothing
   reads that entry's reveal state again (it is freed at emission), and
   the drain it would trigger finds nothing to do, as every change that
   can let the outbox's head emit drains the outbox itself. *)
let on_reveal t ~src iid share =
  let record = Types.Iid_tbl.find_opt t.records iid in
  match record with
  | Some { emitted = true; _ } -> ()
  | _ ->
      let r = reveal_state t iid in
      let accept () =
        ignore (Dbft.Senders.add r.senders src : bool);
        drain_outbox t
      in
      if not (Dbft.Senders.mem r.senders src) then (
        match share with
        | None -> if not t.config.real_crypto then accept ()
        | Some s when not (Int.equal s.Crypto.Vss.holder src) -> ()
        | Some s -> (
            (* Check against the cipher's commitments when we have it. *)
            match record with
            | Some { c_batch = { obf = Types.Vss cipher; _ }; _ } -> (
                match Crypto.Vss.check_share cipher s with
                | Some c ->
                    r.checked <- c :: r.checked;
                    accept ()
                | None -> ())
            | _ ->
                r.early <- s :: r.early;
                accept ()))

(* ------------------------------------------------------------------ *)
(* Commit (Alg. 4: try-commit).                                        *)
(* ------------------------------------------------------------------ *)

(* An instance still undecided here whose proposal requests a seq at
   or below the boundary may yet be accepted, so it holds takes the way
   a validated pending entry does. Peers that decide and take it
   between two heartbeats never gossip it, and a node that did not
   validate it (a late INIT, a failed λ check) books no pending entry
   for it. Walked only when there is something to take. *)
let undecided_blocks t boundary =
  Commit_state.lowest_untaken t.commit <= boundary
  && Types.Iid_set.exists
       (fun iid ->
         match Types.Iid_tbl.find_opt t.instances iid with
         | Some (Live inst)
           when Instance.decided inst = None && not (Instance.halted inst) -> (
             match Instance.requested_seq inst with
             | Some seq -> seq <= boundary
             | None -> false)
         | Some _ | None -> false)
       t.unsettled

(* Frees a settled instance for its tombstone: decided 0, or decided 1
   and in the commit order (taken, or emitted through a sync), once no
   round runs here until a peer starts one. Safe after any of its entry
   points returns. Inside [on_decide] (whose [try_commit] takes) a
   decision the round machine reached is not freed: [Instance.idle] is
   [None] until the machine returns. A forced one halts first and runs
   nothing after [on_decide]. *)
let retire t iid inst =
  match Instance.decided inst with
  | Some value when value = 0 || Types.Iid_tbl.mem t.records iid -> (
      match (Instance.decision_round inst, Instance.idle inst) with
      (* Once: the take inside a forced decision may have retired it. *)
      | Some decision_round, Some help_round
        when match Types.Iid_tbl.find_opt t.instances iid with
             | Some (Live i) -> i == inst
             | Some (Retired _) | None -> false ->
          Types.Iid_tbl.remove t.shares_held iid;
          Types.Iid_tbl.replace t.instances iid
            (Retired { value; decision_round; help_round });
          t.live_instances <- t.live_instances - 1
      | _, _ -> ())
  | Some _ | None -> ()

(* Whether this node has decided [iid]. *)
let decided t iid =
  match Types.Iid_tbl.find_opt t.instances iid with
  | Some (Live inst) -> Instance.decided inst <> None
  | Some (Retired _) -> true
  | None -> false

(* The commit check (Alg. 4 line 90): no validated pending entry, booked
   gossip claim or undecided instance at or below the boundary. The
   claim walk runs first and in full, for its Nudges and expiries. *)
let try_commit t =
  let boundary = Commit_state.committed t.commit in
  if
    boundary > 0
    && (not (Recovery.claims_block (recovery t) boundary))
    && (not (Types.Iid_map.exists (fun _ seq -> seq <= boundary) t.pending))
    && not (undecided_blocks t boundary)
  then begin
    let taken = Commit_state.take_committable t.commit in
    List.iter
      (fun (iid, seq) ->
        match Types.Iid_tbl.find_opt t.instances iid with
        (* A record can already exist when the entry arrived through an
           output-log sync; it was emitted there — don't re-queue it. A
           retired value-1 instance always has one. *)
        | Some (Live inst) when not (Types.Iid_tbl.mem t.records iid) -> (
            match Instance.proposal inst with
            | None -> ()
            | Some proposal ->
                Types.Iid_tbl.replace t.records iid
                  {
                    c_batch = proposal.Types.batch;
                    c_prop = Some proposal;
                    c_seq = seq;
                    emitted = false;
                  };
                Queue.push iid t.outbox;
                stamp_own t iid "take";
                (* Broadcast our decryption share (line 95); it is read
                   nowhere else. *)
                let share =
                  if t.config.real_crypto then begin
                    let s = Types.Iid_tbl.find_opt t.shares_held iid in
                    Types.Iid_tbl.remove t.shares_held iid;
                    s
                  end
                  else None
                in
                broadcast_body t (Types.Reveal { iid; share });
                retire t iid inst)
        | Some (Live _ | Retired _) | None -> ())
      taken;
    if taken <> [] then drain_outbox t
  end

(* ------------------------------------------------------------------ *)
(* Validation function (Alg. 4 line 62, Eq. 1).                        *)
(* ------------------------------------------------------------------ *)

let validate t (proposal : Types.proposal) ~seq_obs =
  let cfg = t.config in
  let n = cfg.n in
  let requested = Types.requested_seq ~n ~f:(f t) proposal.st in
  let ok =
    Int.equal (Array.length proposal.st) n
    && Array.length proposal.batch.txs <= 4 * cfg.batch_size
    &&
    match proposal.st.(t.id) with
    | None -> false
    | Some prediction -> (
        let perr = abs (seq_obs - prediction) in
        if perr > cfg.lambda_us then false
        else
        match requested with
        | None -> false
        | Some s ->
            (* Acceptance window: not locally locked, not too far in
               the future (§VI-D). [skip_window_check] bypasses the
               guard — deliberately unsound, explorer self-test only. *)
            cfg.skip_window_check
            || (s > seq_obs - Config.l_us cfg
               && s < seq_obs + Config.future_bound_us))
  in
  (* A slow INIT can arrive after the instance already decided from the
     other processes' messages; booking it as pending then would leave a
     stale min-pending that stalls everyone's stable prefix. *)
  let already_decided = decided t proposal.batch.iid in
  (match requested with
  | Some s when ok && not (already_decided || Types.Iid_map.mem proposal.batch.iid t.pending)
    ->
      (* A booked gossip claim for it becomes this validated entry. *)
      Recovery.unbook (recovery t) proposal.batch.iid;
      t.min_pending_dirty <- true;
      t.pending <- Types.Iid_map.add proposal.batch.iid s t.pending
  | Some _ | None -> ());
  ok

(* ------------------------------------------------------------------ *)
(* Proposing (ordered-propose, Alg. 2).                                *)
(* ------------------------------------------------------------------ *)

let fresh_txs t k =
  List.init k (fun _ ->
      Mempool.tx t.mempool ~prefix:"w"
        ~payload:(String.make t.config.tx_size '\x00'))

let batch_payload txs =
  String.concat "" (Array.to_list (Array.map (fun tx -> tx.Types.payload) txs))

let propose_batch t txs =
  let cfg = t.config in
  let index = t.next_index in
  t.next_index <- index + 1;
  let iid = { Types.proposer = t.id; index } in
  (* The reference sequence number is the moment the INIT actually
     leaves this node: under load the egress NIC has a backlog, and
     timestamping at enqueue time would shift every receiver's
     perceived time by that backlog, breaking the λ check. *)
  let s_ref =
    Ordering_clock.read t.clock
    + Sim.Cpu.backlog_us (Sim.Network.nic t.net t.id)
  in
  Types.Int_tbl.replace t.own_sref index s_ref;
  Metrics.Phases.start t.phases ~key:index ~now:(Sim.Engine.now t.engine);
  let st = Predictor.predict t.predictor ~s_ref in
  let st =
    match t.misbehavior with
    | Some (Misbehavior.Future_seq { offset_us }) ->
        Array.map (Option.map (fun s -> s + offset_us)) st
    | _ -> st
  in
  t.inflight <- t.inflight + 1;
  let txs = Array.of_list txs in
  let make_batch txs obf = { Types.iid; txs; obf; created_at = s_ref } in
  let sign proposal =
    if cfg.real_crypto then
      Option.map
        (fun kp -> Crypto.Schnorr.sign kp (Types.proposal_digest proposal))
        t.keys
    else None
  in
  if is_byz t Misbehavior.Equivocate then begin
    (* Two proposals under one instance id, split across the network.
       VVB-Unicity prevents both from being delivered with 1. *)
    let variant tag =
      let txs' =
        Array.map
          (fun tx -> { tx with Types.tx_id = tx.Types.tx_id ^ tag })
          txs
      in
      let p = Types.proposal (make_batch txs' Types.Structural) st in
      (p, sign p)
    in
    let a, sig_a = variant ".a" and b, sig_b = variant ".b" in
    for dst = 0 to cfg.n - 1 do
      let proposal, sigma = if dst < cfg.n / 2 then (a, sig_a) else (b, sig_b) in
      send_body t ~dst (Types.Init { proposal; share = None; sigma })
    done
  end
  else if cfg.real_crypto then begin
    let cipher, dshares =
      Crypto.Vss.encrypt ~scheme:cfg.vss_scheme t.rng ~n:cfg.n
        ~threshold:(supermajority t) (batch_payload txs)
    in
    let proposal = Types.proposal (make_batch txs (Types.Vss cipher)) st in
    let sigma = sign proposal in
    for dst = 0 to cfg.n - 1 do
      send_body t ~dst
        (Types.Init { proposal; share = Some dshares.(dst); sigma })
    done
  end
  else begin
    let proposal = Types.proposal (make_batch txs Types.Structural) st in
    broadcast_body t (Types.Init { proposal; share = None; sigma = None })
  end

(* A crashed node holds its transactions; the recovery hook re-enters. *)
let maybe_propose t =
  Mempool.flush t.mempool ~batch_size:t.config.batch_size
    ~timeout_us:t.config.batch_timeout_us
    ~ready:(fun () ->
      t.started
      && (not (Sim.Network.is_crashed t.net t.id))
      && t.inflight < t.config.max_inflight)
    ~propose:(propose_batch t)

let submit t ~payload =
  let tx_id = Mempool.add t.mempool ~payload in
  maybe_propose t;
  tx_id

(* ------------------------------------------------------------------ *)
(* Instance management.                                                *)
(* ------------------------------------------------------------------ *)

let unpend t iid =
  if Types.Iid_map.mem iid t.pending then begin
    t.pending <- Types.Iid_map.remove iid t.pending;
    t.min_pending_dirty <- true
  end

let on_decide t iid ~value ~round proposal =
  unpend t iid;
  t.unsettled <- Types.Iid_set.remove iid t.unsettled;
  Recovery.forget (recovery t) iid;
  t.decide_rounds |> fun r -> Metrics.Recorder.record r (float_of_int round);
  (if Int.equal iid.Types.proposer t.id then begin
     t.inflight <- max 0 (t.inflight - 1);
     if value = 1 then t.own_accepted <- t.own_accepted + 1
     else begin
       t.own_rejected <- t.own_rejected + 1;
       (* A rejected batch carries live client transactions: requeue
          them for a fresh proposal with updated predictions
          (SMR-Liveness, Lemma 8 — processes continuously re-input). *)
       match Types.Iid_tbl.find_opt t.instances iid with
       | Some (Live inst) -> (
           match Instance.proposal inst with
           | Some p ->
               let live =
                 Array.to_list p.Types.batch.Types.txs
                 |> List.filter (fun (tx : Types.tx) ->
                        String.length tx.tx_id > 0 && tx.tx_id.[0] = 'c')
               in
               if live <> [] then begin
                 Mempool.requeue t.mempool live;
                 maybe_propose t
               end
           | None -> ())
       | Some (Retired _) | None -> ()
     end;
     if value = 1 then stamp_own t iid "decide"
     else Metrics.Phases.drop t.phases ~key:iid.Types.index
   end);
  (if value = 1 then
     match proposal with
     | Some p -> (
         match
           Types.requested_seq ~n:t.config.n ~f:(f t) p.Types.st
         with
         | Some seq ->
             (* A decision for an entry already learned through the
                log sync is a replay, not a late accept: the entry
                sits at its canonical position already. A late
                decision is only dangerous once the local log has
                *taken* past its seq — the commit *boundary* may run
                ahead of takes while a blocked pending entry (being
                repaired by the Nudge pull) holds them back, and that
                is the repair working, not a violation. *)
             if not (Commit_state.is_accepted t.commit iid) then begin
               if seq <= Commit_state.taken_upto t.commit then
                 t.late_accepts <- t.late_accepts + 1;
               Commit_state.add_accepted t.commit iid ~seq
             end
         | None -> ())
     | None -> ());
  try_commit t

(* A vote for an own proposal measures the distance to its sender. *)
let observe_vote t iid ~src ~seq_obs =
  if Int.equal iid.Types.proposer t.id then
    match Types.Int_tbl.find_opt t.own_sref iid.Types.index with
    | Some s_ref -> Predictor.observe t.predictor ~peer:src ~s_ref ~seq_obs
    | None -> ()

let make_env t : Instance.env =
  let cfg = t.config in
  {
    self = t.id;
    n = cfg.n;
    f = f t;
    delta_us = cfg.delta_us;
    clock_read = (fun () -> Ordering_clock.read t.clock);
    validate = (fun proposal ~seq_obs -> validate t proposal ~seq_obs);
    verify_init =
      (fun iid proposal sigma ->
        if not cfg.real_crypto then true
        else
          match (sigma, t.dir) with
          | Some sg, Some dir ->
              Crypto.Verify_cache.verify_by t.vcache ~dir
                ~signer:iid.Types.proposer
                (Types.proposal_digest proposal)
                sg
          | _ -> false);
    verify_vote_share =
      (fun ~digest ~src share ->
        if not cfg.real_crypto then true
        else
          match (share, t.dir) with
          | Some sh, Some dir ->
              Int.equal sh.Crypto.Threshold.signer src
              && Crypto.Verify_cache.share_verify t.vcache ~dir digest sh
          | _ -> false);
    make_vote_share =
      (fun ~digest ->
        if not cfg.real_crypto then None
        else
          match t.keys with
          | Some kp -> Some (Crypto.Threshold.share_sign kp digest)
          | None -> None);
    make_deliver_proof =
      (fun ~digest:_ shares ->
        if not cfg.real_crypto then None
        else Crypto.Threshold.combine ~threshold:(supermajority t) shares);
    check_deliver =
      (fun proposal proof ->
        if not cfg.real_crypto then true
        else
          match (proof, t.dir) with
          | Some pf, Some dir ->
              Crypto.Verify_cache.verify_combined t.vcache ~dir
                ~threshold:(supermajority t)
                (Types.proposal_digest proposal)
                pf
          | _ -> false);
    broadcast =
      (fun body ->
        match (t.misbehavior, body) with
        | Some (Misbehavior.Stale_votes { delay_us }), Types.Vote _ ->
            Sim.Engine.schedule t.engine ~delay:delay_us (fun () ->
                broadcast_body t body)
        | _, body -> broadcast_body t body);
    schedule =
      (fun ~delay_us fn ->
        Sim.Engine.schedule t.engine ~delay:delay_us fn);
    observe_vote = observe_vote t;
    on_vvb_deliver = (fun iid -> stamp_own t iid "deliver");
    on_decide = on_decide t;
  }

let inst_env t = Lazy.force t.inst_env

(* What a retired instance's proposal was, where it is still read: the
   EST(1) of a help round and a Decided answer of value 1. *)
let retired_proposal t iid ~value =
  if value = 1 then
    match Types.Iid_tbl.find_opt t.records iid with
    | Some r -> r.c_prop
    | None -> None
  else None

let add_live t iid inst =
  let slot = Live inst in
  Types.Iid_tbl.replace t.instances iid slot;
  t.live_instances <- t.live_instances + 1;
  slot

(* The slot a message of round [round] (0: a VVB message) about [iid]
   goes to, holding a new instance on first contact. A retired
   instance stays a tombstone, unless the message is of the help round
   the tombstone names: then it is rebuilt to join that round, as it
   would have. *)
let instance_of t iid ~round =
  match Types.Iid_tbl.find_opt t.instances iid with
  | Some (Live _ as slot) -> slot
  | Some (Retired { value; decision_round; help_round } as slot) ->
      if round > 0 && Int.equal round help_round then
        add_live t iid
          (Instance.revive (inst_env t) iid
             ~created_at:(Sim.Engine.now t.engine) ~value ~decision_round
             ~round:help_round
             (retired_proposal t iid ~value))
      else slot
  | None ->
      t.unsettled <- Types.Iid_set.add iid t.unsettled;
      add_live t iid
        (Instance.create (inst_env t) iid ~created_at:(Sim.Engine.now t.engine))

(* ------------------------------------------------------------------ *)
(* The recovery stack's host.                                          *)
(* ------------------------------------------------------------------ *)

let view t iid : Recovery.view =
  match Types.Iid_tbl.find_opt t.instances iid with
  | None -> Absent
  | Some (Retired { value; _ }) -> Decided { value; proposal = retired_proposal t iid ~value }
  | Some (Live inst) -> (
      match Instance.decided inst with
      | None -> Undecided
      | Some value ->
          Decided { value; proposal = (if value = 1 then Instance.proposal inst else None) })

let with_live t iid fn =
  match Types.Iid_tbl.find_opt t.instances iid with
  | Some (Live inst) -> fn inst
  | Some (Retired _) | None -> ()

let force_decide t iid ~value proposal =
  with_live t iid (fun inst ->
      let proposal =
        match proposal with
        | None when value = 1 -> Instance.proposal inst
        | Some _ | None -> proposal
      in
      Instance.force_decide inst ~value proposal;
      retire t iid inst)

(* The live instances not yet known settled, in iid order; the ones
   found decided or halted are dropped from the set. *)
let iter_undecided t fn =
  let settled = ref [] in
  Types.Iid_set.iter
    (fun iid ->
      match Types.Iid_tbl.find_opt t.instances iid with
      | Some (Live inst) when Instance.decided inst = None && not (Instance.halted inst) ->
          fn iid ~created_at:(Instance.created_at inst)
      | Some _ | None -> settled := iid :: !settled)
    t.unsettled;
  t.unsettled <- List.fold_left (fun s iid -> Types.Iid_set.remove iid s) t.unsettled !settled

(* Entries taken but not yet emitted, in commit order. *)
let unemitted_tail t =
  Queue.fold
    (fun acc iid ->
      match Types.Iid_tbl.find_opt t.records iid with
      | Some r when not r.emitted -> (iid, r.c_seq) :: acc
      | Some _ | None -> acc)
    [] t.outbox
  |> List.rev

(* A sync server's emitted entry, emitted here in place of the local
   commit; refused if this node emitted it already. The local instance
   is settled if still undecided, so the poke sweep stops nudging for
   it and an own proposal releases its inflight slot, then retired.
   One never created gets a tombstone, so that no late message creates
   it. *)
let adopt_synced t (batch : Types.batch) ~seq =
  let iid = batch.Types.iid in
  match Types.Iid_tbl.find_opt t.records iid with
  | Some r when r.emitted -> false
  | existing ->
      Commit_state.note_committed t.commit iid ~seq;
      unpend t iid;
      let slot = Types.Iid_tbl.find_opt t.instances iid in
      (match existing with
      | Some r -> r.emitted <- true
      | None ->
          let c_prop =
            match slot with
            | Some (Live inst) -> Instance.proposal inst
            | Some (Retired _) | None -> None
          in
          Types.Iid_tbl.replace t.records iid
            { c_batch = batch; c_prop; c_seq = seq; emitted = true });
      (match slot with
      | Some (Live inst) ->
          if Instance.decided inst = None then force_decide t iid ~value:1 None
          else retire t iid inst
      | Some (Retired _) -> ()
      | None ->
          Types.Iid_tbl.replace t.instances iid
            (Retired { value = 1; decision_round = 0; help_round = 0 }));
      if Int.equal iid.Types.proposer t.id then Metrics.Phases.drop t.phases ~key:iid.Types.index;
      emit t batch seq;
      true

let make_host t : Recovery.host =
  {
    config = t.config;
    self = t.id;
    now = (fun () -> Sim.Engine.now t.engine);
    crashed = (fun () -> Sim.Network.is_crashed t.net t.id);
    send = send_body t;
    broadcast = broadcast_body t;
    schedule = (fun ~delay_us fn -> Sim.Engine.schedule t.engine ~delay:delay_us fn);
    output_count = (fun () -> output_count t);
    log_length = (fun () -> log_length t);
    accepted = Commit_state.is_accepted t.commit;
    validated = (fun iid -> Types.Iid_map.mem iid t.pending);
    instance = view t;
    contact =
      (fun iid ->
        ignore (instance_of t iid ~round:0 : slot);
        view t iid);
    poke = (fun iid -> with_live t iid Instance.poke);
    iter_undecided = iter_undecided t;
    force_decide = force_decide t;
    log_slice =
      (fun ~from ->
        Output_log.slice t.log ~from ~len:Config.sync_batch (fun batch ~seq ~at:_ ->
            (batch, seq)));
    unemitted_tail = (fun () -> unemitted_tail t);
    adopt = adopt_synced t;
    resume =
      (fun () ->
        try_commit t;
        drain_outbox t;
        maybe_propose t);
  }

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                           *)
(* ------------------------------------------------------------------ *)

(* Runs [fn] on the live instance a message of round [round] (0: a VVB
   message) about [iid] goes to. Each instance message may settle its
   instance: retire it after. *)
let to_instance t iid ~round fn =
  match instance_of t iid ~round with
  | Live inst ->
      fn inst;
      retire t iid inst
  | Retired _ -> ()

let on_message t ~src (msg : Types.msg) =
  Commit_state.peer_status t.commit ~peer:src ~locked:msg.status.locked_upto
    ~min_pending:msg.status.min_pending;
  Recovery.on_status (recovery t) ~src ~now:(Sim.Engine.now t.engine) msg.status;
  match msg.body with
  | Types.Init { proposal; share; sigma } ->
      let iid = proposal.Types.batch.Types.iid in
      t.on_observe proposal.Types.batch;
      to_instance t iid ~round:0 (fun inst ->
          (match share with
          | Some s when not (Types.Iid_tbl.mem t.records iid) ->
              Types.Iid_tbl.replace t.shares_held iid s
          | Some _ | None -> ());
          Instance.on_init inst ~src proposal sigma)
  | Types.Vote { iid; vote } -> (
      match instance_of t iid ~round:0 with
      | Live inst ->
          Instance.on_vote inst ~src vote;
          retire t iid inst
      | Retired _ -> (
          match vote with
          | Types.Vote_one { seq_obs; _ } | Types.Vote_zero { seq_obs } ->
              observe_vote t iid ~src ~seq_obs))
  | Types.Deliver { iid; proposal; proof } ->
      to_instance t iid ~round:0 (fun inst -> Instance.on_deliver inst ~src proposal proof)
  | Types.Est { iid; round; value; proposal } ->
      to_instance t iid ~round (fun inst -> Instance.on_est inst ~src ~round ~value proposal)
  | Types.Coord { iid; round; value } ->
      to_instance t iid ~round (fun inst -> Instance.on_coord inst ~src ~round ~value)
  | Types.Aux { iid; round; values } ->
      to_instance t iid ~round (fun inst -> Instance.on_aux inst ~src ~round ~values)
  | Types.Reveal { iid; share } -> on_reveal t ~src iid share
  | Types.Heartbeat ->
      (* Commits are attempted from decisions and the heartbeat tick
         rather than on every message. *)
      Recovery.on_heartbeat (recovery t) ~src ~committed:msg.status.committed;
      try_commit t
  | Types.Nudge { iid } -> Recovery.on_nudge (recovery t) ~src iid
  | Types.Decided { iid; value; proposal } ->
      Recovery.on_decided (recovery t) ~src iid ~value proposal
  | Types.Sync_req { from_count } -> Recovery.on_sync_req (recovery t) ~src ~from_count
  | Types.Sync_resp { from_count; upto; entries; tail } ->
      Recovery.on_sync_resp (recovery t) ~src ~from_count ~upto entries tail

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)
(* ------------------------------------------------------------------ *)

let rec heartbeat_loop t =
  try_commit t;
  Recovery.tick (recovery t);
  (* The loop keeps ticking through a crash (local state survives; the
     network layer swallows traffic), but skip the broadcast so the
     send counters reflect reality. *)
  if not (Sim.Network.is_crashed t.net t.id) then
    Sim.Network.broadcast t.net ~src:t.id
      { status = build_status ~full:true t; body = Types.Heartbeat };
  Sim.Engine.schedule t.engine ~delay:t.config.status_interval_us (fun () ->
      heartbeat_loop t)

let warmup t =
  (* Per-node jitter: synchronized warm-up bursts across the whole
     cluster would bias the distance measurements with self-inflicted
     queueing that is absent at client time. *)
  let jitter = Crypto.Rng.int t.rng (max 1 (Config.warmup_spacing_us / 2)) in
  for k = 0 to t.config.warmup_proposals - 1 do
    Sim.Engine.schedule t.engine
      ~delay:((k * Config.warmup_spacing_us) + jitter)
      (fun () ->
        if not (Sim.Network.is_crashed t.net t.id) then
          propose_batch t (fresh_txs t 1))
  done

let rec flood_loop t rate =
  let interval = max 1 (1_000_000 / max 1 rate) in
  propose_batch t (fresh_txs t t.config.batch_size);
  Sim.Engine.schedule t.engine ~delay:interval (fun () -> flood_loop t rate)

let start t =
  if not t.started then begin
    t.started <- true;
    match t.misbehavior with
    | Some Misbehavior.Silent -> Sim.Network.crash t.net t.id
    | Some (Misbehavior.Flood { batches_per_sec }) ->
        heartbeat_loop t;
        Recovery.sweep (recovery t);
        warmup t;
        Sim.Engine.schedule t.engine
          ~delay:(t.config.warmup_proposals * Config.warmup_spacing_us)
          (fun () -> flood_loop t batches_per_sec)
    | _ ->
        heartbeat_loop t;
        Recovery.sweep (recovery t);
        warmup t
  end

let create config net ~id ?keys ?dir ?(clock_offset_us = 0)
    ?misbehavior ?(on_observe = fun _ -> ()) ?(on_output = fun _ -> ()) () =
  if config.Config.real_crypto && (keys = None || dir = None) then
    invalid_arg "Node.create: real_crypto requires keys and directory";
  let engine = Sim.Network.engine net in
  let rec t =
    {
      config;
      id;
      net;
      engine;
      clock = Ordering_clock.create engine ~offset_us:clock_offset_us;
      predictor =
        Predictor.create ~n:config.Config.n ~alpha:Config.ewma_alpha
          ~self:id;
      commit = Commit_state.create ~n:config.Config.n ~f:(Dbft.Quorums.max_faulty config.Config.n);
      keys;
      dir;
      vcache = Crypto.Verify_cache.create ();
      rng = Crypto.Rng.split (Sim.Engine.rng engine);
      misbehavior;
      on_observe;
      on_output;
      instances = Types.Iid_tbl.create 64;
      live_instances = 0;
      inst_env = lazy (make_env t);
      unsettled = Types.Iid_set.empty;
      own_sref = Types.Int_tbl.create 16;
      pending = Types.Iid_map.empty;
      shares_held = Types.Iid_tbl.create 32;
      reveals = Types.Iid_tbl.create 32;
      records = Types.Iid_tbl.create 32;
      outbox = Queue.create ();
      log = Output_log.create ();
      mempool = Mempool.create engine ~node:id ~prefix:"c";
      next_index = 0;
      inflight = 0;
      started = false;
      min_pending_dirty = true;
      min_pending_cache = Types.no_pending;
      recovery = lazy (Recovery.create (make_host t));
      late_accepts = 0;
      own_accepted = 0;
      own_rejected = 0;
      decide_rounds = Metrics.Recorder.create ();
      phases = Metrics.Phases.create phase_spans;
    }
  in
  let recovery = recovery t in
  Sim.Network.register net ~id (fun ~src msg -> on_message t ~src msg);
  Sim.Network.on_recover net ~id (fun () ->
      Recovery.on_recover recovery;
      maybe_propose t);
  t
