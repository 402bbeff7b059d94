(* Integration tests of the full Lyra SMR node: agreement, prefix
   safety, liveness, lower-bounded sequence numbers, commit-reveal,
   Byzantine resilience, and behaviour under pre-GST asynchrony. *)

(* Cluster setup, submission and prefix-safety helpers live in
   Testutil, shared with the fault, protocol and explorer suites. *)
open Testutil


let test_basic_commit_and_agreement () =
  let c = make_cluster 4 in
  Sim.Engine.run c.engine ~until:1_000_000;
  submit_round c ~per_node:5;
  Sim.Engine.run c.engine ~until:4_000_000;
  Array.iter
    (fun node ->
      Alcotest.(check bool) "outputs something" true
        (List.length (Lyra.Node.output_log node) > 0);
      Alcotest.(check int) "no late accepts" 0 (Lyra.Node.late_accepts node);
      Alcotest.(check int) "no pending left" 0 (Lyra.Node.pending_count node))
    c.nodes;
  let l = logs c in
  Alcotest.(check bool) "same length" true
    (Array.for_all (fun x -> List.length x = List.length l.(0)) l);
  check_prefix_safety l

let test_warmup_learns_distances () =
  let c = make_cluster 7 in
  Sim.Engine.run c.engine ~until:1_200_000;
  Array.iter
    (fun node ->
      Alcotest.(check int) "all distances" 7 (Lyra.Node.distances_known node))
    c.nodes

let test_good_case_one_round () =
  let c = make_cluster 7 in
  Sim.Engine.run c.engine ~until:1_200_000;
  (* after warm-up every client instance decides in round 1 *)
  submit_round c ~per_node:3;
  Sim.Engine.run c.engine ~until:4_000_000;
  Array.iter
    (fun node ->
      Alcotest.(check int) "all own accepted post warm-up" 0
        (max 0 (Lyra.Node.own_rejected node - 2 (* warm-up rejections *))))
    c.nodes

let test_seq_numbers_lower_bounded () =
  (* BOC-Validity (Def. 6): decided seqs are within λ + offsets of
     perceived times; concretely each output's seq must be close to the
     batch's creation time plus a network distance, never far in the
     past. *)
  let outputs = ref [] in
  let c =
    make_cluster ~on_output:(fun _ o -> outputs := o :: !outputs) 4
  in
  Sim.Engine.run c.engine ~until:1_000_000;
  submit_round c ~per_node:5;
  Sim.Engine.run c.engine ~until:4_000_000;
  List.iter
    (fun (o : Lyra.Node.output) ->
      let age = o.seq - o.batch.created_at in
      Alcotest.(check bool) "seq >= creation - lambda" true
        (age >= -c.cfg.lambda_us);
      Alcotest.(check bool) "seq within acceptance window" true
        (age <= Lyra.Config.l_us c.cfg))
    !outputs;
  Alcotest.(check bool) "saw outputs" true (!outputs <> [])

let test_output_order_matches_seq () =
  let c = make_cluster 4 in
  Sim.Engine.run c.engine ~until:1_000_000;
  submit_round c ~per_node:8;
  Sim.Engine.run c.engine ~until:5_000_000;
  let seqs =
    List.map (fun (o : Lyra.Node.output) -> o.seq) (Lyra.Node.output_log c.nodes.(0))
  in
  let sorted = List.sort Int.compare seqs in
  Alcotest.(check (list int)) "ascending" sorted seqs

let test_prefix_safety_across_seeds () =
  for seed = 1 to 8 do
    let c = make_cluster ~seed:(Int64.of_int seed) 7 in
    Sim.Engine.run c.engine ~until:1_200_000;
    submit_round c ~per_node:4;
    submit_round c ~per_node:4;
    Sim.Engine.run c.engine ~until:5_000_000;
    check_prefix_safety (logs c);
    Array.iter
      (fun node -> Alcotest.(check int) "no late" 0 (Lyra.Node.late_accepts node))
      c.nodes
  done

let test_real_crypto_cluster () =
  let c = make_cluster ~real_crypto:true 4 in
  Sim.Engine.run c.engine ~until:1_000_000;
  submit_round c ~per_node:3;
  Sim.Engine.run c.engine ~until:4_000_000;
  Alcotest.(check bool) "commits with real crypto" true
    (List.length (Lyra.Node.output_log c.nodes.(0)) > 0);
  check_prefix_safety (logs c)

(* Verify-once: a share that reaches a node before the node holds the
   entry's cipher is kept unchecked and checked at decryption. Node 0
   (acting Byzantine here) sends node 1 a forged share for every entry
   before any exists, so node 1 ignores node 0's genuine share later
   and must decrypt each entry from the shares of nodes 1–3. Holder 0
   sorts first, so a forged share that slipped into reconstruction
   would give a wrong key, and the entry could then reach node 1's log
   only through a sync. *)
let test_forged_early_share_ignored () =
  let c = make_cluster ~real_crypto:true 4 in
  Sim.Engine.run c.engine ~until:1_000_000;
  let forged =
    {
      Crypto.Vss.holder = 0;
      share =
        {
          Crypto.Feldman.Sharing.x = Crypto.Group.Scalar.of_int 1;
          y = Crypto.Group.Scalar.of_int 12345;
        };
    }
  in
  let status =
    {
      Lyra.Types.locked_upto = 0;
      min_pending = Lyra.Types.no_pending;
      committed = 0;
      accepted_recent = [];
    }
  in
  for proposer = 0 to 3 do
    for index = 0 to 200 do
      Sim.Network.send c.net ~src:0 ~dst:1
        {
          Lyra.Types.status;
          body = Reveal { iid = { proposer; index }; share = Some forged };
        }
    done
  done;
  let payloads = List.init 3 (Printf.sprintf "forged-early-%d") in
  List.iter
    (fun payload -> ignore (Lyra.Node.submit c.nodes.(2) ~payload : string))
    payloads;
  Sim.Engine.run c.engine ~until:4_000_000;
  let log = Lyra.Node.output_log c.nodes.(1) in
  Alcotest.(check int) "nothing synced" 0 (Lyra.Node.synced_entries c.nodes.(1));
  Alcotest.(check bool) "node 1 emits" true (log <> []);
  let emitted =
    List.concat_map
      (fun (o : Lyra.Node.output) ->
        Array.to_list (Array.map (fun (tx : Lyra.Types.tx) -> tx.payload) o.batch.txs))
      log
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) ("emitted " ^ p) true (List.mem p emitted))
    payloads;
  check_prefix_safety (logs c)

let byz_test misbehavior () =
  let n = 7 in
  let f = Dbft.Quorums.max_faulty n in
  let c = make_cluster ~byz:(fun i -> if i < f then Some misbehavior else None) n in
  Sim.Engine.run c.engine ~until:1_500_000;
  (* only honest nodes get client load *)
  Array.iteri
    (fun i node ->
      if i >= f then
        for _ = 1 to 4 do
          ignore (Lyra.Node.submit node ~payload:(String.make 32 'y') : string)
        done)
    c.nodes;
  Sim.Engine.run c.engine ~until:8_000_000;
  let honest = Array.sub c.nodes f (n - f) in
  Array.iter
    (fun node ->
      Alcotest.(check bool) "liveness" true (List.length (Lyra.Node.output_log node) > 0);
      Alcotest.(check int) "no late" 0 (Lyra.Node.late_accepts node))
    honest;
  let honest_logs =
    Array.map
      (fun node ->
        List.map (fun (o : Lyra.Node.output) -> o.batch.iid) (Lyra.Node.output_log node))
      honest
  in
  check_prefix_safety honest_logs

let test_equivocator_rejected () =
  let n = 7 in
  let c = make_cluster ~byz:(fun i -> if i = 0 then Some Lyra.Misbehavior.Equivocate else None) n in
  Sim.Engine.run c.engine ~until:8_000_000;
  (* VVB-Unicity: an equivocating proposal cannot gather two quorums;
     honest nodes still agree on whatever (if anything) was accepted. *)
  let honest = Array.sub c.nodes 1 (n - 1) in
  let accepted = Array.map Lyra.Node.accepted_count honest in
  Array.iter
    (fun a -> Alcotest.(check int) "same accepted count" accepted.(0) a)
    accepted;
  check_prefix_safety
    (Array.map
       (fun node ->
         List.map (fun (o : Lyra.Node.output) -> o.batch.iid) (Lyra.Node.output_log node))
       honest)

let test_future_seq_bounded_by_lambda () =
  (* Byzantine proposer drifting more than λ into the future is
     rejected (§VI-D). *)
  let n = 4 in
  let c =
    make_cluster
      ~byz:(fun i ->
        if i = 0 then Some (Lyra.Misbehavior.Future_seq { offset_us = 50_000 })
        else None)
      n
  in
  Sim.Engine.run c.engine ~until:6_000_000;
  (* the attacker's warm-up and flood proposals all get rejected *)
  Alcotest.(check int) "attacker accepted nothing" 0
    (Lyra.Node.own_accepted c.nodes.(0))

let test_pre_gst_asynchrony_safe () =
  (* Messages are adversarially delayed up to 1.5 s before GST = 2 s;
     safety must hold throughout, liveness resumes after GST. *)
  let adversary =
    Sim.Adversary.Pre_gst { gst = 2_000_000; max_extra = 1_500_000 }
  in
  let c = make_cluster ~adversary 4 in
  (* SMR-Liveness presumes correct processes continuously input their
     transactions (Lemma 8): keep submitting through and past GST. *)
  for k = 0 to 29 do
    Sim.Engine.schedule c.engine
      ~delay:(1_000_000 + (k * 300_000))
      (fun () -> submit_round c ~per_node:1)
  done;
  Sim.Engine.run c.engine ~until:2_500_000;
  check_prefix_safety (logs c);
  Sim.Engine.run c.engine ~until:14_000_000;
  Array.iter
    (fun node ->
      Alcotest.(check bool) "liveness after GST" true
        (List.length (Lyra.Node.output_log node) > 0);
      Alcotest.(check int) "no late accepts" 0 (Lyra.Node.late_accepts node))
    c.nodes;
  check_prefix_safety (logs c)

let test_reveal_quorum_required () =
  (* With real VSS, decryption requires 2f+1 shares: a single node's
     share is not enough (checked at the crypto layer, here we check
     the cluster still outputs = reveal machinery works). *)
  let outputs = ref 0 in
  let c =
    make_cluster ~real_crypto:true
      ~tweak:(fun cfg -> { cfg with vss_scheme = Crypto.Vss.Feldman })
      ~on_output:(fun _ _ -> incr outputs)
      4
  in
  Sim.Engine.run c.engine ~until:1_000_000;
  submit_round c ~per_node:2;
  Sim.Engine.run c.engine ~until:4_000_000;
  Alcotest.(check bool) "revealed outputs" true (!outputs > 0)

let prop_prefix_safety_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"prefix safety over random seeds and mixes" ~count:6
       QCheck.(int_bound 10_000)
       (fun seed ->
         let n = 4 + (seed mod 4) in
         let f = Dbft.Quorums.max_faulty n in
         let mis =
           match seed mod 3 with
           | 0 -> None
           | 1 -> Some Lyra.Misbehavior.Silent
           | _ -> Some Lyra.Misbehavior.Low_status
         in
         let c =
           make_cluster
             ~seed:(Int64.of_int (seed + 1))
             ~byz:(fun i -> if i < f then mis else None)
             n
         in
         Sim.Engine.run c.engine ~until:1_500_000;
         Array.iteri
           (fun i node ->
             if i >= f || mis = None then
               for _ = 1 to 3 do
                 ignore (Lyra.Node.submit node ~payload:"payload-xxxxxxxx" : string)
               done)
           c.nodes;
         Sim.Engine.run c.engine ~until:7_000_000;
         let ls = logs c in
         let honest = if mis = None then ls else Array.sub ls f (n - f) in
         Array.for_all
           (fun la ->
             Array.for_all (fun lb -> is_prefix la lb || is_prefix lb la) honest)
           honest))

let test_deterministic_rerun () =
  (* Lock in iteration-order independence (lint rule D001, fixed in
     node.ml): two runs from the same seed must agree bit-for-bit on
     commit prefixes *and* metrics, not just up to reordering. *)
  let run () =
    let c = make_cluster ~seed:42L 4 in
    Sim.Engine.run c.engine ~until:1_000_000;
    submit_round c ~per_node:6;
    Sim.Engine.run c.engine ~until:4_000_000;
    let per_node =
      Array.map
        (fun node ->
          ( Lyra.Node.committed_seq node,
            Lyra.Node.accepted_count node,
            Lyra.Node.own_accepted node,
            Lyra.Node.own_rejected node,
            Lyra.Node.late_accepts node,
            Metrics.Recorder.to_array (Lyra.Node.decide_rounds node),
            List.map
              (fun (label, r) -> (label, Metrics.Recorder.to_array r))
              (Metrics.Phases.pairs (Lyra.Node.phases node)) ))
        c.nodes
    in
    (logs c, per_node)
  in
  let logs1, metrics1 = run () in
  let logs2, metrics2 = run () in
  Alcotest.(check bool) "second run commits something" true
    (Array.exists (fun l -> l <> []) logs2);
  Alcotest.(check bool) "identical commit logs" true (logs1 = logs2);
  Alcotest.(check bool) "identical per-node metrics" true (metrics1 = metrics2)

(* ------------------------------------------------------------------ *)
(* Retired instances (DESIGN §7.19): a settled instance is freed for a *)
(* tombstone that answers late messages as the instance did.           *)
(* ------------------------------------------------------------------ *)

(* From now on node [id] only records what it receives: a fake peer
   whose messages the test writes itself. Newest first. *)
let capture c id =
  let got = ref [] in
  Sim.Network.register c.net ~id (fun ~src (m : Lyra.Types.msg) ->
      got := (src, m.body) :: !got);
  got

let inject c ~src ~dst body =
  let status =
    {
      Lyra.Types.locked_upto = 0;
      min_pending = Lyra.Types.no_pending;
      committed = 0;
      accepted_recent = [];
    }
  in
  Sim.Network.send c.net ~src ~dst { Lyra.Types.status; body }

let run_for c us = Sim.Engine.run c.engine ~until:(Sim.Engine.now c.engine + us)

(* A cluster that decided and committed everything it was given. *)
let quiescent_cluster () =
  let c = make_cluster 4 in
  Sim.Engine.run c.engine ~until:1_000_000;
  submit_round c ~per_node:5;
  Sim.Engine.run c.engine ~until:4_000_000;
  c

let decided_replies got ~from iid =
  List.filter_map
    (function
      | src, Lyra.Types.Decided { iid = i; value; proposal }
        when src = from && Lyra.Types.iid_equal i iid ->
          Some (value, proposal)
      | _ -> None)
    !got

let test_retired_answers_nudge () =
  let c = quiescent_cluster () in
  let node = c.nodes.(0) in
  Alcotest.(check int) "every settled instance retired" 0
    (Lyra.Node.live_instances node);
  let got = capture c 3 in
  let own = Lyra.Node.own_accepted node + Lyra.Node.own_rejected node in
  for index = 0 to own - 1 do
    inject c ~src:3 ~dst:0 (Nudge { iid = { proposer = 0; index } })
  done;
  run_for c 200_000;
  let log = Lyra.Node.output_log node in
  let ones = ref 0 and zeros = ref 0 in
  for index = 0 to own - 1 do
    let iid = { Lyra.Types.proposer = 0; index } in
    match decided_replies got ~from:0 iid with
    | [ (1, Some p) ] ->
        (* The decided proposal: the committed batch, at its seq. *)
        incr ones;
        let o =
          List.find (fun (o : Lyra.Node.output) -> Lyra.Types.iid_equal o.batch.iid iid) log
        in
        Alcotest.(check bool) "committed batch" true (p.batch == o.batch);
        Alcotest.(check (option int)) "decided seq" (Some o.seq)
          (Lyra.Types.requested_seq ~n:4 ~f:1 p.st)
    | [ (0, None) ] ->
        incr zeros;
        Alcotest.(check bool) "rejected, not committed" false
          (List.exists (fun (o : Lyra.Node.output) -> Lyra.Types.iid_equal o.batch.iid iid) log)
    | _ -> Alcotest.failf "index %d: not one Decided answer" index
  done;
  Alcotest.(check int) "accepted answered 1" (Lyra.Node.own_accepted node) !ones;
  Alcotest.(check int) "rejected answered 0" (Lyra.Node.own_rejected node) !zeros;
  Alcotest.(check int) "no instance created" 0 (Lyra.Node.live_instances node)

(* A Sync_req is answered with the server's emitted log from
   [from_count], at most [sync_batch] entries, cut at the log's end: so
   empty at or past the end, and near [max_int], where [from_count +
   sync_batch] overflows. Checked against the log read as a list. *)
let test_sync_slice () =
  let c = make_cluster 4 in
  Sim.Engine.run c.engine ~until:1_000_000;
  for _ = 1 to 30 do
    submit_round c ~per_node:1;
    run_for c 100_000
  done;
  run_for c 3_000_000;
  let node = c.nodes.(0) in
  let entry iid seq = (Printf.sprintf "%d/%d" iid.Lyra.Types.proposer iid.index, seq) in
  let log =
    List.map (fun (o : Lyra.Node.output) -> entry o.batch.iid o.seq) (Lyra.Node.output_log node)
  in
  let len = List.length log and batch = Lyra.Config.sync_batch in
  Alcotest.(check bool) (Printf.sprintf "%d entries > a sync batch" len) true (len > batch);
  let got = capture c 3 in
  List.iter
    (fun from_count ->
      got := [];
      inject c ~src:3 ~dst:0 (Sync_req { from_count });
      run_for c 100_000;
      let name s = Printf.sprintf "from %d: %s" from_count s in
      let expected = List.filteri (fun i _ -> i >= from_count && i - from_count < batch) log in
      match
        List.filter_map
          (function
            | 0, Lyra.Types.Sync_resp { from_count; upto; entries; _ } ->
                Some (from_count, upto, entries)
            | _ -> None)
          !got
      with
      | [ (f, upto, entries) ] ->
          Alcotest.(check int) (name "from_count echoed") from_count f;
          Alcotest.(check int) (name "upto is the log length") len upto;
          Alcotest.(check (list (pair string int))) (name "entries") expected
            (List.map (fun ((b : Lyra.Types.batch), seq) -> entry b.iid seq) entries)
      | _ -> Alcotest.failf "%s" (name "not one Sync_resp"))
    [ 0; 1; len / 2; len - batch; len - 1; len; len + 1; max_int - batch + 1; max_int ];
  Alcotest.(check (list (pair string int))) "log unchanged" log
    (List.map (fun (o : Lyra.Node.output) -> entry o.batch.iid o.seq) (Lyra.Node.output_log node))

(* The predictor's median over 5 samples follows 3 fresh ones. *)
let test_late_vote_moves_predictor () =
  let c = quiescent_cluster () in
  let got = capture c 3 in
  let o =
    List.find
      (fun (o : Lyra.Node.output) -> o.batch.iid.proposer = 0)
      (Lyra.Node.output_log c.nodes.(0))
  in
  let far = 10_000_000 in
  for _ = 1 to 3 do
    inject c ~src:2 ~dst:0
      (Vote
         { iid = o.batch.iid; vote = Vote_zero { seq_obs = o.batch.created_at + far } })
  done;
  run_for c 100_000;
  Alcotest.(check int) "no instance created" 0 (Lyra.Node.live_instances c.nodes.(0));
  got := [];
  submit_round c ~per_node:5;
  run_for c 200_000;
  let distances =
    List.filter_map
      (function
        | 0, Lyra.Types.Init { proposal; _ } -> (
            match (proposal.st.(0), proposal.st.(2)) with
            | Some s0, Some s2 -> Some (s2 - s0)
            | _ -> None)
        | _ -> None)
      !got
  in
  Alcotest.(check bool) "node 0 proposed" true (distances <> []);
  List.iter (fun d -> Alcotest.(check int) "predicted distance to node 2" far d) distances

(* Node 0's round-2 messages about [iid] since [got] was last reset,
   with the proposal an EST carries reduced to whether it is [p]. *)
let help_replies got iid p =
  List.rev_map
    (function
      | _, Lyra.Types.Est { round; value; proposal; _ } ->
          (Printf.sprintf "est %d %d" round value, Option.map (fun q -> q == p) proposal)
      | _, Lyra.Types.Coord { round; value; _ } -> (Printf.sprintf "coord %d %d" round value, None)
      | _, Lyra.Types.Aux { round; values; _ } ->
          ( Printf.sprintf "aux %d %s" round
              (String.concat "," (List.map string_of_int values)),
            None )
      | _ -> ("", None))
    (List.filter
       (function
         | 0, Lyra.Types.(Est { iid = i; round; _ } | Coord { iid = i; round; _ } | Aux { iid = i; round; _ })
           ->
             Lyra.Types.iid_equal i iid && round >= 2
         | _ -> false)
       !got)

(* A laggard's round-2 EST wakes the decided quorum into the help
   round (DESIGN §7.2); a retired instance is rebuilt to answer it as
   a decided, unretired one does. *)
let test_help_round_from_retired () =
  let c = make_cluster 4 in
  Sim.Engine.run c.engine ~until:1_500_000;
  let got = capture c 3 in
  let node = c.nodes.(0) in
  (* One transaction at node 1 makes one instance; its INIT names it. *)
  let propose () =
    got := [];
    ignore (Lyra.Node.submit c.nodes.(1) ~payload:(String.make 32 'h') : string);
    let inits () =
      List.filter_map
        (function 1, Lyra.Types.Init { proposal; _ } -> Some proposal | _ -> None)
        !got
    in
    let deadline = Sim.Engine.now c.engine + 500_000 in
    while inits () = [] && Sim.Engine.now c.engine < deadline do
      run_for c 1_000
    done;
    match inits () with
    | [ p ] -> p
    | _ -> Alcotest.fail "expected one INIT from node 1"
  in
  let laggard_est (p : Lyra.Types.proposal) =
    got := [];
    inject c ~src:3 ~dst:0 (Est { iid = p.batch.iid; round = 2; value = 1; proposal = None });
    run_for c 1_000_000;
    help_replies got p.batch.iid p
  in
  (* Decided at node 0, not yet taken: the acceptance window holds it
     for L = 3Δ after the decision. *)
  let accepted = Lyra.Node.accepted_count node in
  let p1 = propose () in
  let deadline = Sim.Engine.now c.engine + 1_000_000 in
  while Lyra.Node.accepted_count node = accepted && Sim.Engine.now c.engine < deadline do
    run_for c 1_000
  done;
  Alcotest.(check int) "decided at node 0" (accepted + 1) (Lyra.Node.accepted_count node);
  let unretired = laggard_est p1 in
  (* Committed and retired everywhere. *)
  let p2 = propose () in
  run_for c 2_000_000;
  Alcotest.(check bool) "committed" true
    (List.exists
       (fun (o : Lyra.Node.output) -> Lyra.Types.iid_equal o.batch.iid p2.batch.iid)
       (Lyra.Node.output_log node));
  Alcotest.(check int) "retired" 0 (Lyra.Node.live_instances node);
  let retired = laggard_est p2 in
  let show = List.map (fun (k, p) -> k ^ match p with Some true -> " +proposal" | Some false -> " +other" | None -> "") in
  Alcotest.(check (list string)) "unretired replies"
    [ "est 2 1 +proposal"; "aux 2 1" ] (show unretired);
  Alcotest.(check (list string)) "same replies once retired" (show unretired) (show retired);
  Alcotest.(check int) "retired again after the help round" 0
    (Lyra.Node.live_instances node)

let test_late_kinds_create_nothing () =
  let c = quiescent_cluster () in
  let node = c.nodes.(0) in
  let got = capture c 3 in
  let o =
    List.find
      (fun (o : Lyra.Node.output) -> o.batch.iid.proposer = 1)
      (Lyra.Node.output_log node)
  in
  let iid = o.batch.iid in
  inject c ~src:3 ~dst:0 (Nudge { iid });
  run_for c 100_000;
  let p =
    match decided_replies got ~from:0 iid with
    | [ (1, Some p) ] -> p
    | _ -> Alcotest.fail "no Decided answer"
  in
  let digest = Lyra.Types.proposal_digest p in
  (* Every message kind about an instance, bar its help round (2). *)
  List.iter
    (fun (src, body) -> inject c ~src ~dst:0 body)
    [
      (1, Lyra.Types.Init { proposal = p; share = None; sigma = None });
      (3, Vote { iid; vote = Vote_one { digest; share = None; seq_obs = 0 } });
      (3, Vote { iid; vote = Vote_zero { seq_obs = 0 } });
      (3, Deliver { iid; proposal = p; proof = None });
      (3, Est { iid; round = 3; value = 0; proposal = None });
      (3, Coord { iid; round = 3; value = 0 });
      (3, Aux { iid; round = 1; values = [ 0 ] });
      (3, Aux { iid; round = 3; values = [ 0 ] });
      (3, Decided { iid; value = 0; proposal = None });
      (3, Reveal { iid; share = None });
    ];
  run_for c 200_000;
  Alcotest.(check int) "no instance created" 0 (Lyra.Node.live_instances node);
  Alcotest.(check int) "no tally" 0 (Lyra.Node.decided_tallies node)

(* A Decided notice for an instance not decided yet opens a tally; the
   instance then decides through its own messages, which drops it. *)
let test_tally_dropped_on_decision () =
  let c = make_cluster 4 in
  for index = 0 to c.cfg.warmup_proposals - 1 do
    inject c ~src:3 ~dst:0
      (Decided { iid = { proposer = 1; index }; value = 1; proposal = None })
  done;
  run_for c 100_000;
  Alcotest.(check int) "tallies open" c.cfg.warmup_proposals
    (Lyra.Node.decided_tallies c.nodes.(0));
  Sim.Engine.run c.engine ~until:1_500_000;
  Alcotest.(check int) "own decisions of node 1" c.cfg.warmup_proposals
    (Lyra.Node.own_accepted c.nodes.(1) + Lyra.Node.own_rejected c.nodes.(1));
  Alcotest.(check int) "tallies dropped" 0 (Lyra.Node.decided_tallies c.nodes.(0))

(* Live instances follow what is undecided or not yet taken, not the
   run length. Each live instance at a node is undecided there (at
   most max_inflight per proposer at its proposer) or decided and
   waiting to be taken, which takes at most the commit latency C; so
   with r batches committed per second, a node holds at most
   n * max_inflight + r * C. The load repeats every 100 ms, so runs to
   3 s and to 6 s end in the same phase and hold the same count. *)
let test_live_instances_bounded () =
  let n = 16 in
  let live ~horizon =
    let faults =
      Sim.Faults.none
      |> Sim.Faults.loss ~dup_p:0.01 ~from_us:1_500_000 ~until_us:2_500_000 ~drop_p:0.02
      |> Sim.Faults.crash ~node:5 ~at_us:1_700_000 ~recover_us:2_200_000
    in
    let c = make_cluster ~faults n in
    let rec load () =
      if Sim.Engine.now c.engine < horizon then begin
        submit_round c ~per_node:5;
        Sim.Engine.schedule c.engine ~delay:100_000 load
      end
    in
    Sim.Engine.schedule c.engine ~delay:1_000_000 load;
    Sim.Engine.run c.engine ~until:horizon;
    let recent =
      List.filter
        (fun (o : Lyra.Node.output) -> o.output_at > horizon - 1_000_000)
        (Lyra.Node.output_log c.nodes.(0))
    in
    let rate = List.length recent in
    let commit_s =
      List.fold_left
        (fun m (o : Lyra.Node.output) -> max m (o.output_at - o.batch.created_at))
        0 recent
    in
    let bound = (n * c.cfg.max_inflight) + (rate * commit_s / 1_000_000) in
    Alcotest.(check bool) "commits at the end" true (rate > 0);
    Array.iter
      (fun node ->
        let k = Lyra.Node.live_instances node in
        if k > bound then Alcotest.failf "%d live instances > bound %d" k bound)
      c.nodes;
    Array.fold_left (fun acc node -> acc + Lyra.Node.live_instances node) 0 c.nodes
  in
  let at3 = live ~horizon:3_000_000 in
  let at6 = live ~horizon:6_000_000 in
  Alcotest.(check int) "same count at 3 s and 6 s" at3 at6

(* A decision forced by f + 1 Decided notices closes the instance's
   VVB as retirement's tombstone does: a late VOTE(1) quorum and a late
   DELIVER for it make node 0 send no vote and no DELIVER. Node 0's
   peers are all fakes here, so every message it gets is written out. *)
let test_forced_decision_sends_nothing () =
  let c = make_cluster 4 in
  let got = List.map (capture c) [ 1; 2; 3 ] in
  let iid = { Lyra.Types.proposer = 1; index = 0 } in
  let p =
    Lyra.Types.proposal
      {
        iid;
        txs = [| { Lyra.Types.tx_id = "late"; payload = "p"; submitted_at = 0; origin = 1 } |];
        obf = Lyra.Types.Structural;
        created_at = 0;
      }
      [| Some 0; Some 0; Some 0; Some 0 |]
  in
  List.iter
    (fun src -> inject c ~src ~dst:0 (Decided { iid; value = 1; proposal = Some p }))
    [ 2; 3 ];
  run_for c 100_000;
  let digest = Lyra.Types.proposal_digest p in
  List.iter
    (fun src ->
      inject c ~src ~dst:0 (Vote { iid; vote = Vote_one { digest; share = None; seq_obs = 0 } }))
    [ 1; 2; 3 ];
  inject c ~src:2 ~dst:0 (Deliver { iid; proposal = p; proof = None });
  run_for c 1_000_000;
  let about_iid =
    List.concat_map
      (fun got ->
        List.filter
          (function
            | 0, Lyra.Types.(Vote { iid = i; _ } | Deliver { iid = i; _ }) -> Lyra.Types.iid_equal i iid
            | _ -> false)
          !got)
      got
  in
  Alcotest.(check int) "votes and DELIVERs sent" 0 (List.length about_iid)

let suite =
  [
    Alcotest.test_case "commit + agreement" `Quick test_basic_commit_and_agreement;
    Alcotest.test_case "deterministic rerun" `Quick test_deterministic_rerun;
    Alcotest.test_case "warmup distances" `Quick test_warmup_learns_distances;
    Alcotest.test_case "good case decides" `Quick test_good_case_one_round;
    Alcotest.test_case "seqs lower bounded" `Quick test_seq_numbers_lower_bounded;
    Alcotest.test_case "output order = seq order" `Quick test_output_order_matches_seq;
    Alcotest.test_case "prefix safety seeds" `Slow test_prefix_safety_across_seeds;
    Alcotest.test_case "real crypto cluster" `Quick test_real_crypto_cluster;
    Alcotest.test_case "forged early share ignored" `Quick
      test_forged_early_share_ignored;
    Alcotest.test_case "byz silent" `Quick (byz_test Lyra.Misbehavior.Silent);
    Alcotest.test_case "byz low-status" `Quick (byz_test Lyra.Misbehavior.Low_status);
    Alcotest.test_case "byz flood" `Slow
      (byz_test (Lyra.Misbehavior.Flood { batches_per_sec = 4 }));
    Alcotest.test_case "byz stale votes" `Slow
      (byz_test (Lyra.Misbehavior.Stale_votes { delay_us = 500_000 }));
    Alcotest.test_case "equivocator" `Quick test_equivocator_rejected;
    Alcotest.test_case "future-seq bounded" `Quick test_future_seq_bounded_by_lambda;
    Alcotest.test_case "pre-GST asynchrony" `Slow test_pre_gst_asynchrony_safe;
    Alcotest.test_case "reveal quorum" `Quick test_reveal_quorum_required;
    prop_prefix_safety_random;
    Alcotest.test_case "retired answers nudge" `Quick test_retired_answers_nudge;
    Alcotest.test_case "sync slice = list" `Quick test_sync_slice;
    Alcotest.test_case "late vote moves predictor" `Quick test_late_vote_moves_predictor;
    Alcotest.test_case "help round from retired" `Quick test_help_round_from_retired;
    Alcotest.test_case "late kinds create nothing" `Quick test_late_kinds_create_nothing;
    Alcotest.test_case "tally dropped on decision" `Quick test_tally_dropped_on_decision;
    Alcotest.test_case "live instances bounded" `Quick test_live_instances_bounded;
    Alcotest.test_case "forced decision sends nothing" `Quick test_forced_decision_sends_nothing;
  ]
