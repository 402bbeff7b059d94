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
  ]
