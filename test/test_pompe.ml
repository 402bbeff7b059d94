(* The Pompē baseline: median sequencing, agreement, stable in-order
   execution, censorship hooks, timestamp withholding. *)

let make_cluster ?(seed = 31L) ?(censors = []) ?respond_ts_for
    ?(on_observe = fun _ _ -> ()) ?faults n =
  let engine = Sim.Engine.create ~seed () in
  let cfg =
    { (Pompe.Config.default ~n) with batch_size = 5; batch_timeout_us = 20_000 }
  in
  let latency = Sim.Latency.regional ~jitter:0.01 (Sim.Regions.paper_placement n) in
  let net =
    Sim.Network.create engine ~n ~latency ?faults
      ~cost:(fun ~dst:_ b -> Pompe.Types.msg_cost Sim.Costs.default b)
      ~size:Pompe.Types.msg_size ()
  in
  let nodes =
    Array.init n (fun id ->
        Pompe.Node.create cfg net ~id
          ~on_observe:(on_observe id)
          ~censor:(fun iid ->
            List.mem id censors && iid.Lyra.Types.proposer = 0)
          ?respond_ts:
            (match respond_ts_for with
            | Some (byz_id, policy) when byz_id = id -> Some policy
            | _ -> None)
          ())
  in
  Array.iter Pompe.Node.start nodes;
  (engine, nodes)

let outputs_of node =
  List.map (fun (o : Pompe.Node.output) -> o.batch.Lyra.Types.iid) (Pompe.Node.output_log node)

let test_median_seq () =
  (* the sequencing median is the middle of the 2f+1 collected
     timestamps — verified through observable behaviour at n=4: seq of
     each output falls among the perceived times *)
  let engine, nodes = make_cluster 4 in
  for _ = 1 to 5 do
    ignore (Pompe.Node.submit nodes.(0) ~payload:(String.make 32 'z') : string)
  done;
  Sim.Engine.run engine ~until:10_000_000;
  let out = Pompe.Node.output_log nodes.(1) in
  Alcotest.(check bool) "committed" true (out <> []);
  List.iter
    (fun (o : Pompe.Node.output) ->
      let age = o.seq - o.batch.Lyra.Types.created_at in
      (* median of perceived times: within [0, max one-way + offsets] *)
      Alcotest.(check bool) "sane median" true (age >= -5_000 && age < 200_000))
    out

let test_agreement_across_nodes () =
  let engine, nodes = make_cluster 7 in
  for round = 0 to 4 do
    ignore
      (Sim.Engine.schedule engine ~delay:(round * 100_000) (fun () ->
           Array.iter
             (fun nd ->
               for _ = 1 to 3 do
                 ignore (Pompe.Node.submit nd ~payload:(String.make 32 'q') : string)
               done)
             nodes)
        : Sim.Engine.timer)
  done;
  Sim.Engine.run engine ~until:15_000_000;
  let base = outputs_of nodes.(0) in
  Alcotest.(check bool) "committed plenty" true (List.length base >= 20);
  Array.iter
    (fun nd ->
      let o = outputs_of nd in
      let l = min (List.length base) (List.length o) in
      Alcotest.(check bool) "prefix agreement" true
        (List.filteri (fun i _ -> i < l) base = List.filteri (fun i _ -> i < l) o))
    nodes

let test_outputs_in_seq_order () =
  let engine, nodes = make_cluster 4 in
  Array.iter
    (fun nd ->
      for _ = 1 to 6 do
        ignore (Pompe.Node.submit nd ~payload:(String.make 32 'o') : string)
      done)
    nodes;
  Sim.Engine.run engine ~until:12_000_000;
  let seqs = List.map (fun (o : Pompe.Node.output) -> o.seq) (Pompe.Node.output_log nodes.(2)) in
  Alcotest.(check (list int)) "ascending" (List.sort Int.compare seqs) seqs

let test_observation_hook_sees_cleartext () =
  let seen = ref false in
  let engine, nodes =
    make_cluster
      ~on_observe:(fun id batch ->
        if id = 1 then
          match Lyra.Types.observable_txs batch with
          | Some txs when Array.length txs > 0 -> seen := true
          | _ -> ())
      4
  in
  ignore (Pompe.Node.submit nodes.(0) ~payload:"sensitive" : string);
  Sim.Engine.run engine ~until:3_000_000;
  Alcotest.(check bool) "payload visible in flight" true !seen

let test_ts_withholding_tolerated () =
  (* One node never responds with timestamps: 2f+1 others suffice. *)
  let engine, nodes =
    make_cluster ~respond_ts_for:(1, fun _ ~honest:_ -> None) 4
  in
  for _ = 1 to 4 do
    ignore (Pompe.Node.submit nodes.(0) ~payload:(String.make 32 'w') : string)
  done;
  Sim.Engine.run engine ~until:12_000_000;
  Alcotest.(check bool) "still commits" true (Pompe.Node.output_log nodes.(0) <> [])

let test_sequenced_count () =
  let engine, nodes = make_cluster 4 in
  for _ = 1 to 5 do
    ignore (Pompe.Node.submit nodes.(3) ~payload:(String.make 32 's') : string)
  done;
  Sim.Engine.run engine ~until:10_000_000;
  Array.iter
    (fun nd -> Alcotest.(check int) "one sequenced batch" 1 (Pompe.Node.sequenced_count nd))
    nodes

let test_censor_does_not_break_safety () =
  let engine, nodes = make_cluster ~censors:[ 1; 2 ] 7 in
  Array.iter
    (fun nd ->
      for _ = 1 to 3 do
        ignore (Pompe.Node.submit nd ~payload:(String.make 32 'c') : string)
      done)
    nodes;
  Sim.Engine.run engine ~until:15_000_000;
  let base = outputs_of nodes.(0) in
  Alcotest.(check bool) "victim's batch eventually included" true
    (List.exists (fun (i : Lyra.Types.iid) -> i.proposer = 0) base);
  Array.iter
    (fun nd ->
      let o = outputs_of nd in
      let l = min (List.length base) (List.length o) in
      Alcotest.(check bool) "prefix agreement" true
        (List.filteri (fun i _ -> i < l) base = List.filteri (fun i _ -> i < l) o))
    nodes

let test_cmd_encoding () =
  let cmd = { Pompe.Types.c_iid = { proposer = 3; index = 9 }; c_seq = 5; c_proof_count = 3 } in
  Alcotest.(check string) "id" "3.9" (Pompe.Types.cmd_id cmd);
  Alcotest.(check int) "size grows with proofs" (64 + 288) (Pompe.Types.cmd_size cmd)

(* A crashed node holds its client transactions until it recovers, like
   every other protocol, instead of letting its batch timer propose
   them into a dead NIC; the recovery hook proposes them and they
   commit. *)
let test_crashed_node_holds_mempool () =
  let faults =
    Sim.Faults.(none |> crash ~node:1 ~at_us:10_000 ~recover_us:2_000_000)
  in
  let engine, nodes = make_cluster ~faults 4 in
  let tx_id = Pompe.Node.submit nodes.(1) ~payload:(String.make 32 'k') in
  Sim.Engine.run engine ~until:100_000;
  Alcotest.(check int) "held while crashed" 1 (Pompe.Node.mempool_size nodes.(1));
  Sim.Engine.run engine ~until:10_000_000;
  Alcotest.(check int) "proposed on recovery" 0 (Pompe.Node.mempool_size nodes.(1));
  Alcotest.(check bool) "committed after recovery" true
    (List.exists
       (fun (o : Pompe.Node.output) ->
         Array.exists
           (fun (tx : Lyra.Types.tx) -> String.equal tx.tx_id tx_id)
           o.batch.Lyra.Types.txs)
       (Pompe.Node.output_log nodes.(0)))

let suite =
  [
    Alcotest.test_case "median sequencing" `Quick test_median_seq;
    Alcotest.test_case "agreement" `Slow test_agreement_across_nodes;
    Alcotest.test_case "outputs in seq order" `Quick test_outputs_in_seq_order;
    Alcotest.test_case "cleartext observable" `Quick test_observation_hook_sees_cleartext;
    Alcotest.test_case "ts withholding tolerated" `Quick test_ts_withholding_tolerated;
    Alcotest.test_case "sequenced count" `Quick test_sequenced_count;
    Alcotest.test_case "censorship safety" `Slow test_censor_does_not_break_safety;
    Alcotest.test_case "cmd encoding" `Quick test_cmd_encoding;
    Alcotest.test_case "crashed node holds mempool" `Quick
      test_crashed_node_holds_mempool;
  ]
