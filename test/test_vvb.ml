(* White-box tests of one BOC instance (Alg. 1 VVB + Alg. 3 rounds)
   against a mock environment: every broadcast and timer is captured,
   and the test plays the other n−1 processes by hand. *)

type world = {
  mutable sent : Lyra.Types.body list;  (** reverse order *)
  mutable timers : (int * (unit -> unit)) list;
  mutable now : int;
  mutable decided : (int * int * Lyra.Types.proposal option) list;
  mutable validate_result : bool;
  mutable observed : (int * int) list;
}

let iid = { Lyra.Types.proposer = 1; index = 0 }

let n = 4

(* Every per-instance hook must name the instance under test. *)
let own i = if not (Lyra.Types.iid_equal i iid) then Alcotest.fail "foreign iid"

let make_env w : Lyra.Instance.env =
  {
    self = 0;
    n;
    f = 1;
    delta_us = 1_000;
    clock_read =
      (fun () ->
        w.now <- w.now + 1;
        w.now);
    validate = (fun _ ~seq_obs:_ -> w.validate_result);
    verify_init = (fun i _ _ -> own i; true);
    verify_vote_share = (fun ~digest:_ ~src:_ _ -> true);
    make_vote_share = (fun ~digest:_ -> None);
    make_deliver_proof = (fun ~digest:_ _ -> None);
    check_deliver = (fun _ _ -> true);
    broadcast = (fun body -> w.sent <- body :: w.sent);
    schedule = (fun ~delay_us fn -> w.timers <- (delay_us, fn) :: w.timers);
    observe_vote =
      (fun i ~src ~seq_obs ->
        own i;
        w.observed <- (src, seq_obs) :: w.observed);
    on_vvb_deliver = own;
    on_decide =
      (fun i ~value ~round proposal ->
        own i;
        w.decided <- (value, round, proposal) :: w.decided);
  }

let make_world () =
  {
    sent = [];
    timers = [];
    now = 1_000;
    decided = [];
    validate_result = true;
    observed = [];
  }

let tx = { Lyra.Types.tx_id = "t0"; payload = "p"; submitted_at = 0; origin = 1 }

let proposal ?(tag = "") () =
  Lyra.Types.proposal
    {
      iid;
      txs = [| { tx with Lyra.Types.tx_id = "t0" ^ tag } |];
      obf = Lyra.Types.Structural;
      created_at = 900;
    }
    [| Some 1_000; Some 900; Some 1_100; Some 1_200 |]

let sent_votes w =
  List.filter_map
    (function Lyra.Types.Vote { vote; _ } -> Some vote | _ -> None)
    w.sent

let fire_timers w =
  let ts = w.timers in
  w.timers <- [];
  List.iter (fun (_, fn) -> fn ()) (List.rev ts)

let vote1 p ~seq_obs =
  Lyra.Types.Vote_one
    { digest = Lyra.Types.proposal_digest p; share = None; seq_obs }

let test_valid_init_votes_one () =
  let w = make_world () in
  let inst = Lyra.Instance.create (make_env w) iid ~created_at:0 in
  let p = proposal () in
  Lyra.Instance.on_init inst ~src:1 p None;
  match sent_votes w with
  | [ Lyra.Types.Vote_one { digest; seq_obs; _ } ] ->
      Alcotest.(check string) "digest of proposal" (Lyra.Types.proposal_digest p) digest;
      Alcotest.(check bool) "clock-derived seq_obs" true (seq_obs > 1_000);
      Alcotest.(check (option int)) "recorded" (Some seq_obs) (Lyra.Instance.seq_obs inst)
  | _ -> Alcotest.fail "expected exactly one VOTE(1)"

let test_invalid_init_votes_zero () =
  let w = make_world () in
  w.validate_result <- false;
  let inst = Lyra.Instance.create (make_env w) iid ~created_at:0 in
  Lyra.Instance.on_init inst ~src:1 (proposal ()) None;
  match sent_votes w with
  | [ Lyra.Types.Vote_zero _ ] -> ()
  | _ -> Alcotest.fail "expected exactly one VOTE(0)"

let test_init_from_wrong_source_ignored () =
  let w = make_world () in
  let inst = Lyra.Instance.create (make_env w) iid ~created_at:0 in
  Lyra.Instance.on_init inst ~src:2 (proposal ()) None;
  Alcotest.(check int) "silent" 0 (List.length w.sent);
  Alcotest.(check bool) "no proposal" true (Lyra.Instance.proposal inst = None)

let test_duplicate_init_ignored () =
  let w = make_world () in
  let inst = Lyra.Instance.create (make_env w) iid ~created_at:0 in
  Lyra.Instance.on_init inst ~src:1 (proposal ()) None;
  let count = List.length w.sent in
  Lyra.Instance.on_init inst ~src:1 (proposal ()) None;
  Alcotest.(check int) "no extra message" count (List.length w.sent)

let test_quorum_delivers_and_decides_round1 () =
  let w = make_world () in
  let inst = Lyra.Instance.create (make_env w) iid ~created_at:0 in
  let p = proposal () in
  Lyra.Instance.on_init inst ~src:1 p None;
  (* n − f = 3 votes for the digest (self + two peers) *)
  Lyra.Instance.on_vote inst ~src:0 (vote1 p ~seq_obs:1_001);
  Lyra.Instance.on_vote inst ~src:1 (vote1 p ~seq_obs:905);
  Alcotest.(check (list (pair int int))) "no decision yet" []
    (List.map (fun (v, r, _) -> (v, r)) w.decided);
  Lyra.Instance.on_vote inst ~src:2 (vote1 p ~seq_obs:1_102);
  (* DELIVER broadcast (Alg. 1 line 13) *)
  Alcotest.(check bool) "deliver sent" true
    (List.exists (function Lyra.Types.Deliver _ -> true | _ -> false) w.sent);
  (* AUX {1} goes out on the round-1 fast path *)
  Alcotest.(check bool) "aux sent" true
    (List.exists
       (function Lyra.Types.Aux { values = [ 1 ]; round = 1; _ } -> true | _ -> false)
       w.sent);
  (* AUX quorum: self-delivery plus two peers decide 1 in round 1 *)
  Lyra.Instance.on_aux inst ~src:0 ~round:1 ~values:[ 1 ];
  Lyra.Instance.on_aux inst ~src:2 ~round:1 ~values:[ 1 ];
  Lyra.Instance.on_aux inst ~src:3 ~round:1 ~values:[ 1 ];
  (match w.decided with
  | [ (1, 1, Some _) ] -> ()
  | _ -> Alcotest.fail "expected decide(1) in round 1");
  Alcotest.(check (option int)) "decided" (Some 1) (Lyra.Instance.decided inst);
  Alcotest.(check (option int)) "round" (Some 1) (Lyra.Instance.decision_round inst)

let test_equivocation_unicity () =
  (* Votes for two different digests never merge into one quorum. *)
  let w = make_world () in
  let inst = Lyra.Instance.create (make_env w) iid ~created_at:0 in
  let pa = proposal ~tag:"a" () and pb = proposal ~tag:"b" () in
  Lyra.Instance.on_init inst ~src:1 pa None;
  Lyra.Instance.on_vote inst ~src:0 (vote1 pa ~seq_obs:1_001);
  Lyra.Instance.on_vote inst ~src:2 (vote1 pb ~seq_obs:1_002);
  Lyra.Instance.on_vote inst ~src:3 (vote1 pb ~seq_obs:1_003);
  (* 1 vote for a (+ own was for a), 2 for b: neither digest reached
     n − f = 3 distinct voters *)
  Alcotest.(check bool) "nothing delivered" true
    (not (List.exists (function Lyra.Types.Deliver _ -> true | _ -> false) w.sent))

let test_vote_zero_relay_and_delivery () =
  let w = make_world () in
  w.validate_result <- false;
  let inst = Lyra.Instance.create (make_env w) iid ~created_at:0 in
  Lyra.Instance.on_init inst ~src:1 (proposal ()) None;
  (* own VOTE(0) is out; f + 1 = 2 zeros trigger relay — already sent,
     so no duplicate; n − f = 3 zeros deliver (0, ⊥) *)
  Lyra.Instance.on_vote inst ~src:0 (Lyra.Types.Vote_zero { seq_obs = 1 });
  Lyra.Instance.on_vote inst ~src:2 (Lyra.Types.Vote_zero { seq_obs = 2 });
  Lyra.Instance.on_vote inst ~src:3 (Lyra.Types.Vote_zero { seq_obs = 3 });
  let zeros =
    List.length
      (List.filter (function Lyra.Types.Vote_zero _ -> true | _ -> false) (sent_votes w))
  in
  Alcotest.(check int) "voted zero once" 1 zeros;
  (* fast-path AUX {0} after delivery *)
  Alcotest.(check bool) "aux {0}" true
    (List.exists
       (function Lyra.Types.Aux { values = [ 0 ]; round = 1; _ } -> true | _ -> false)
       w.sent);
  Lyra.Instance.on_aux inst ~src:0 ~round:1 ~values:[ 0 ];
  Lyra.Instance.on_aux inst ~src:2 ~round:1 ~values:[ 0 ];
  Lyra.Instance.on_aux inst ~src:3 ~round:1 ~values:[ 0 ];
  (* 0 ≠ 1 mod 2: no decision in round 1; round 2 begins, est = 0 *)
  Alcotest.(check (list int)) "no decision" [] (List.map (fun (v, _, _) -> v) w.decided);
  Alcotest.(check bool) "round-2 EST(0) broadcast" true
    (List.exists
       (function Lyra.Types.Est { round = 2; value = 0; _ } -> true | _ -> false)
       w.sent)

let test_round2_rejection_decides_zero () =
  let w = make_world () in
  w.validate_result <- false;
  let inst = Lyra.Instance.create (make_env w) iid ~created_at:0 in
  Lyra.Instance.on_init inst ~src:1 (proposal ()) None;
  List.iter
    (fun src -> Lyra.Instance.on_vote inst ~src (Lyra.Types.Vote_zero { seq_obs = src }))
    [ 0; 2; 3 ];
  List.iter (fun src -> Lyra.Instance.on_aux inst ~src ~round:1 ~values:[ 0 ]) [ 0; 2; 3 ];
  (* round 2: BV-broadcast of 0; 2f+1 = 3 ESTs deliver 0 into bin *)
  List.iter (fun src -> Lyra.Instance.on_est inst ~src ~round:2 ~value:0 None) [ 0; 2; 3 ];
  fire_timers w (* Δ timer for round 2 gates the AUX *);
  List.iter (fun src -> Lyra.Instance.on_aux inst ~src ~round:2 ~values:[ 0 ]) [ 0; 2; 3 ];
  match w.decided with
  | [ (0, 2, None) ] -> ()
  | _ -> Alcotest.fail "expected decide(0) in round 2"

let test_deliver_adopts_certified_proposal () =
  (* A process that never saw the INIT adopts the proposal from a
     DELIVER carrying the quorum certificate. *)
  let w = make_world () in
  let inst = Lyra.Instance.create (make_env w) iid ~created_at:0 in
  let p = proposal () in
  Lyra.Instance.on_deliver inst ~src:2 p None;
  Alcotest.(check bool) "adopted" true (Lyra.Instance.proposal inst <> None);
  (* and rebroadcasts the proof for VVB-Uniformity *)
  Alcotest.(check bool) "rebroadcast" true
    (List.exists (function Lyra.Types.Deliver _ -> true | _ -> false) w.sent)

(* The requested seq kept beside the proposal follows every write of
   it: none at first, the INIT's, then the certified proposal's when a
   DELIVER replaces a diverging one. *)
let test_requested_seq_follows_proposal () =
  let w = make_world () in
  let inst = Lyra.Instance.create (make_env w) iid ~created_at:0 in
  let requested () = Lyra.Instance.requested_seq inst in
  let with_st tag st =
    let p = proposal ~tag () in
    Lyra.Types.proposal p.Lyra.Types.batch st
  in
  let pa = with_st "a" [| Some 1_000; Some 900; Some 1_100; Some 1_200 |]
  and pb = with_st "b" [| Some 2_000; Some 1_900; Some 2_100; Some 2_200 |] in
  let want (p : Lyra.Types.proposal) = Lyra.Types.requested_seq ~n ~f:1 p.st in
  Alcotest.(check (option int)) "no proposal" None (requested ());
  Lyra.Instance.on_init inst ~src:1 pa None;
  Alcotest.(check (option int)) "the INIT's" (want pa) (requested ());
  Lyra.Instance.on_deliver inst ~src:2 pb None;
  Alcotest.(check (option string)) "replaced"
    (Some (Lyra.Types.proposal_digest pb))
    (Option.map Lyra.Types.proposal_digest (Lyra.Instance.proposal inst));
  Alcotest.(check (option int)) "the DELIVER's" (want pb) (requested ());
  Alcotest.(check bool) "the seqs differ" true (want pa <> want pb)

let test_expire_forces_zero_vote () =
  (* A process that learned of the instance only via votes eventually
     votes 0 after E = 2Δ (Alg. 1 lines 23–24 / VVB-Obligation). *)
  let w = make_world () in
  let inst = Lyra.Instance.create (make_env w) iid ~created_at:0 in
  let p = proposal () in
  Lyra.Instance.on_vote inst ~src:2 (vote1 p ~seq_obs:1_000);
  Alcotest.(check int) "nothing sent yet" 0 (List.length (sent_votes w));
  fire_timers w;
  match sent_votes w with
  | [ Lyra.Types.Vote_zero _ ] -> ()
  | _ -> Alcotest.fail "expected timeout VOTE(0)"

let test_observe_hook_sees_all_votes () =
  let w = make_world () in
  let inst = Lyra.Instance.create (make_env w) iid ~created_at:0 in
  let p = proposal () in
  Lyra.Instance.on_vote inst ~src:2 (vote1 p ~seq_obs:777);
  Lyra.Instance.on_vote inst ~src:3 (Lyra.Types.Vote_zero { seq_obs = 888 });
  Alcotest.(check (list (pair int int))) "both observed" [ (3, 888); (2, 777) ] w.observed

let test_duplicate_votes_ignored () =
  let w = make_world () in
  let inst = Lyra.Instance.create (make_env w) iid ~created_at:0 in
  let p = proposal () in
  Lyra.Instance.on_init inst ~src:1 p None;
  Lyra.Instance.on_vote inst ~src:2 (vote1 p ~seq_obs:1);
  Lyra.Instance.on_vote inst ~src:2 (vote1 p ~seq_obs:1);
  Lyra.Instance.on_vote inst ~src:2 (vote1 p ~seq_obs:1);
  (* still needs a third distinct voter: no deliver *)
  Alcotest.(check bool) "no deliver" true
    (not (List.exists (function Lyra.Types.Deliver _ -> true | _ -> false) w.sent))

let test_rejects_garbage_rounds_and_values () =
  let w = make_world () in
  let inst = Lyra.Instance.create (make_env w) iid ~created_at:0 in
  Lyra.Instance.on_est inst ~src:2 ~round:1 ~value:1 None (* round 1 has no BV *);
  Lyra.Instance.on_est inst ~src:2 ~round:2 ~value:7 None;
  Lyra.Instance.on_aux inst ~src:2 ~round:1 ~values:[ 9 ];
  Lyra.Instance.on_coord inst ~src:3 ~round:1 ~value:1 (* not the coordinator *);
  (* Rounds outside 1..max_rounds, with every peer and the round's
     would-be coordinator: enough to relay, deliver and decide if they
     were accepted. *)
  List.iter
    (fun round ->
      List.iter
        (fun src ->
          Lyra.Instance.on_est inst ~src ~round ~value:1 None;
          Lyra.Instance.on_aux inst ~src ~round ~values:[ 1 ])
        [ 0; 1; 2; 3 ];
      Lyra.Instance.on_coord inst ~src:(((round mod n) + n) mod n) ~round ~value:1)
    [ 0; -1; Dbft.Rounds.max_rounds + 1 ];
  Alcotest.(check int) "no broadcast" 0 (List.length w.sent);
  (* The instance still runs round 1 normally. *)
  let p = proposal () in
  Lyra.Instance.on_init inst ~src:1 p None;
  List.iter (fun src -> Lyra.Instance.on_vote inst ~src (vote1 p ~seq_obs:1_000)) [ 0; 1; 2 ];
  List.iter (fun src -> Lyra.Instance.on_aux inst ~src ~round:1 ~values:[ 1 ]) [ 0; 2; 3 ];
  match w.decided with
  | [ (1, 1, Some _) ] -> ()
  | _ -> Alcotest.fail "expected decide(1) in round 1"

let suite =
  [
    Alcotest.test_case "valid INIT -> VOTE(1)" `Quick test_valid_init_votes_one;
    Alcotest.test_case "invalid INIT -> VOTE(0)" `Quick test_invalid_init_votes_zero;
    Alcotest.test_case "INIT wrong source" `Quick test_init_from_wrong_source_ignored;
    Alcotest.test_case "duplicate INIT" `Quick test_duplicate_init_ignored;
    Alcotest.test_case "quorum -> decide(1) round 1" `Quick test_quorum_delivers_and_decides_round1;
    Alcotest.test_case "equivocation unicity" `Quick test_equivocation_unicity;
    Alcotest.test_case "requested seq follows proposal" `Quick
      test_requested_seq_follows_proposal;
    Alcotest.test_case "vote-0 relay + delivery" `Quick test_vote_zero_relay_and_delivery;
    Alcotest.test_case "round-2 rejection" `Quick test_round2_rejection_decides_zero;
    Alcotest.test_case "deliver adoption" `Quick test_deliver_adopts_certified_proposal;
    Alcotest.test_case "expire -> VOTE(0)" `Quick test_expire_forces_zero_vote;
    Alcotest.test_case "observe hook" `Quick test_observe_hook_sees_all_votes;
    Alcotest.test_case "duplicate votes" `Quick test_duplicate_votes_ignored;
    Alcotest.test_case "garbage inputs" `Quick test_rejects_garbage_rounds_and_values;
  ]
