(* The Pompē baseline: median sequencing, agreement, stable in-order
   execution, censorship hooks, timestamp withholding. *)

(* [on_send] sees every message sent between two distinct nodes, and
   [on_recv ~dst] every message that reaches a live [dst]. *)
let make_cluster ?(seed = 31L) ?(censors = []) ?respond_ts_for
    ?(on_observe = fun _ _ -> ()) ?(on_send = fun _ -> ()) ?(on_recv = fun ~dst:_ _ -> ())
    ?faults n =
  let engine = Sim.Engine.create ~seed () in
  let cfg =
    { (Pompe.Config.default ~n) with batch_size = 5; batch_timeout_us = 20_000 }
  in
  let latency = Sim.Latency.regional ~jitter:0.01 (Sim.Regions.paper_placement n) in
  let net =
    Sim.Network.create engine ~n ~latency ?faults
      ~cost:(fun ~dst b ->
        on_recv ~dst b;
        Pompe.Types.msg_cost Sim.Costs.default b)
      ~size:(fun b ->
        on_send b;
        Pompe.Types.msg_size b)
      ()
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
    Sim.Engine.schedule engine ~delay:(round * 100_000) (fun () ->
        Array.iter
          (fun nd ->
            for _ = 1 to 3 do
              ignore (Pompe.Node.submit nd ~payload:(String.make 32 'q') : string)
            done)
          nodes)
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

(* Four nodes at seed 7, each submitting five transactions every
   100 ms for 4 s: 40 own five-tx batches per node, more than
   [max_inflight]. *)
let loaded_cluster ?on_send () =
  let engine, nodes = make_cluster ~seed:7L ?on_send 4 in
  for round = 0 to 39 do
    Sim.Engine.schedule engine ~delay:(round * 100_000) (fun () ->
        Array.iter
          (fun nd ->
            for _ = 1 to 5 do
              ignore (Pompe.Node.submit nd ~payload:(String.make 32 'b') : string)
            done)
          nodes)
  done;
  (engine, nodes)

(* Block ids are SHA-256 over the height, parent, proposer and command
   ids ("proposer.index"); keying the command pool by integer must not
   move them. The digest and count are those of the string-keyed pool. *)
let test_block_ids_pinned () =
  let ids = ref [] and seen = Hashtbl.create 64 in
  let on_send = function
    | Pompe.Types.Hs (Hotstuff.Replica.Proposal b) ->
        if not (Hashtbl.mem seen b.Hotstuff.Replica.b_id) then begin
          Hashtbl.replace seen b.b_id ();
          ids := b.b_id :: !ids
        end
    | _ -> ()
  in
  let engine, nodes = loaded_cluster ~on_send () in
  Sim.Engine.run engine ~until:12_000_000;
  Alcotest.(check bool) "committed" true (Pompe.Node.output_log nodes.(0) <> []);
  Alcotest.(check int) "proposals" 123 (List.length !ids);
  Alcotest.(check string) "block id digest" "af7102bc6c7aadf2137af89dda88187ac0dce92aca21f328ca9ae53d063af0c7"
    (Crypto.Sha256.to_hex (Crypto.Sha256.digest_list (List.rev !ids)))

(* The sorted-list insert the execution queue replaced: a new entry
   goes in front of the first entry it does not exceed. *)
let reference_insert entry l =
  let compare (s1, i1) (s2, i2) =
    match Int.compare s1 s2 with 0 -> Lyra.Types.iid_compare i1 i2 | c -> c
  in
  let rec insert = function
    | [] -> [ entry ]
    | x :: rest as l -> if compare entry x <= 0 then entry :: l else x :: insert rest
  in
  insert l

type exec_op = Add of int * Lyra.Types.iid | Drain of int

(* Distinct entries over few seqs (many ties, broken by iid), added in
   random order and drained up to random horizons in between. *)
let gen_exec_ops =
  let open QCheck.Gen in
  let entry =
    map3
      (fun seq proposer index -> (seq, { Lyra.Types.proposer; index }))
      (int_bound 5) (int_bound 3) (int_bound 4)
  in
  list_size (int_range 0 80)
    (frequency
       [ (4, map (fun (s, i) -> Add (s, i)) entry); (1, map (fun h -> Drain h) (int_range (-1) 6)) ])
  >|= fun ops ->
  let added = Hashtbl.create 16 in
  List.filter
    (function
      | Add (s, i) ->
          let key = (s, i.Lyra.Types.proposer, i.index) in
          (not (Hashtbl.mem added key)) && (Hashtbl.replace added key (); true)
      | Drain _ -> true)
    ops

let print_exec_op = function
  | Add (s, i) -> Printf.sprintf "Add (%d, %d/%d)" s i.Lyra.Types.proposer i.index
  | Drain h -> Printf.sprintf "Drain %d" h

let prop_exec_queue_matches_sorted_list =
  QCheck.Test.make ~name:"exec queue drains like the sorted-list insert" ~count:500
    (QCheck.make gen_exec_ops ~print:(fun ops ->
         String.concat ", " (List.map print_exec_op ops)))
    (fun ops ->
      let module Q = Pompe.Node.Exec_queue in
      (* Pops entries with seq <= h, lowest first, as the node's drain. *)
      let rec drain_queue h q acc =
        match Q.min_elt_opt q with
        | Some ((s, _) as e) when s <= h -> drain_queue h (Q.remove e q) (e :: acc)
        | _ -> (q, List.rev acc)
      in
      let rec drain_list h acc = function
        | (s, _) as e :: rest when s <= h -> drain_list h (e :: acc) rest
        | rest -> (rest, List.rev acc)
      in
      let q, l, same =
        List.fold_left
          (fun (q, l, same) op ->
            match op with
            | Add (s, i) -> (Q.add (s, i) q, reference_insert (s, i) l, same)
            | Drain h ->
                let q, from_q = drain_queue h q [] and l, from_l = drain_list h [] l in
                (q, l, same && from_q = from_l))
          (Q.empty, [], true) ops
      in
      same && snd (drain_queue max_int q []) = l)

(* Node 2 loses node 0's Order_req, and node 0 crashes once its batch
   is sequenced, so node 2 commits that batch with no payload while its
   proposer is down. Execution waits on the fetch, which asks node 0
   first and node 1 next; node 1 holds the payload, so node 2 executes
   both batches, in order, before node 0 recovers. *)
let test_missing_payload_fetched_from_holder () =
  let faults =
    Sim.Faults.(
      none
      |> loss ~from_us:0 ~until_us:400_000 ~src:0 ~dst:2 ~drop_p:1.0
      |> crash ~node:0 ~at_us:500_000 ~recover_us:4_000_000)
  in
  let b0 = { Lyra.Types.proposer = 0; index = 0 } and b1 = { Lyra.Types.proposer = 1; index = 0 } in
  let sent = ref 0 and reached = ref [] in
  let on_send = function Pompe.Types.Order_fetch { iid } when iid = b0 -> incr sent | _ -> () in
  let on_recv ~dst = function
    | Pompe.Types.Order_fetch { iid } when iid = b0 -> reached := dst :: !reached
    | _ -> ()
  in
  let engine, nodes = make_cluster ~faults ~on_send ~on_recv 4 in
  ignore (Pompe.Node.submit nodes.(0) ~payload:(String.make 32 'x') : string);
  Sim.Engine.schedule engine ~delay:100_000 (fun () ->
      ignore (Pompe.Node.submit nodes.(1) ~payload:(String.make 32 'y') : string));
  Sim.Engine.run engine ~until:3_900_000;
  Alcotest.(check bool) "node 1 executed both, in order" true (outputs_of nodes.(1) = [ b0; b1 ]);
  Alcotest.(check bool) "node 2 executed both, in order" true (outputs_of nodes.(2) = [ b0; b1 ]);
  (* The first fetch went to the crashed proposer, so only the second
     reached anyone. *)
  Alcotest.(check int) "two fetches" 2 !sent;
  Alcotest.(check (list int)) "the second reached node 1" [ 1 ] !reached

(* An own proposal's collect entry goes once it is sequenced (or given
   up), so the table never holds more than the in-flight window, and
   none at the end of a fault-free run. *)
let test_collects_bounded () =
  let engine, nodes = loaded_cluster () in
  let max_open = ref 0 in
  for step = 1 to 120 do
    Sim.Engine.run engine ~until:(step * 100_000);
    Array.iter (fun nd -> max_open := max !max_open (Pompe.Node.open_collects nd)) nodes
  done;
  let cfg = Pompe.Config.default ~n:4 in
  Array.iteri
    (fun id nd ->
      let own = List.filter (fun (i : Lyra.Types.iid) -> i.proposer = id) (outputs_of nd) in
      Alcotest.(check bool) "executed more own batches than the window" true
        (List.length own > cfg.max_inflight))
    nodes;
  Alcotest.(check bool) "at most max_inflight open" true (!max_open <= cfg.max_inflight);
  Alcotest.(check bool) "some were open" true (!max_open > 0);
  Array.iter (fun nd -> Alcotest.(check int) "none open at the end" 0 (Pompe.Node.open_collects nd)) nodes

(* One link dropped for the whole run is within f: its receiver must
   still commit and execute. The link's sender leads every n-th view, so
   each of the receiver's three-chains at n = 4 holds a block it can
   only fetch; at n = 7 seed 31 the receiver leads the view after the
   sender, so the block that references the lost one is its own. Every
   row's receiver ends within 12 committed heights of the highest
   replica, and its executed log holds at least 85 % of the longest:
   the payloads its proposer's Order_reqs would have carried come from
   the other holders. *)
let test_one_silent_link_commits () =
  List.iter
    (fun (n, seed, src, dst) ->
      let faults =
        Sim.Faults.(none |> loss ~from_us:0 ~until_us:20_000_000 ~src ~dst ~drop_p:1.0)
      in
      let engine, nodes = make_cluster ~seed ~faults n in
      for round = 0 to 199 do
        Sim.Engine.schedule engine ~delay:(round * 100_000) (fun () ->
            Array.iter
              (fun nd -> ignore (Pompe.Node.submit nd ~payload:(String.make 32 's') : string))
              nodes)
      done;
      Sim.Engine.run engine ~until:20_000_000;
      let heights = Array.map Pompe.Node.committed_height nodes in
      let top = Array.fold_left max 0 heights in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d seed=%Ld %d->%d heights %s" n seed src dst
           (String.concat " " (Array.to_list (Array.map string_of_int heights))))
        true
        (top - heights.(dst) <= 12);
      let executed = Array.map (fun nd -> List.length (Pompe.Node.output_log nd)) nodes in
      let longest = Array.fold_left max 0 executed in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d seed=%Ld %d->%d executed %s" n seed src dst
           (String.concat " " (Array.to_list (Array.map string_of_int executed))))
        true
        (100 * executed.(dst) >= 85 * longest))
    [ (4, 31L, 0, 2); (4, 7L, 0, 2); (4, 31L, 1, 3); (7, 31L, 1, 2) ]

(* Node 0 is cut off from 2 s to 102 s of a 130 s run (n = 4, seed 3,
   two closed-loop clients per node). Its unsequenced batches keep
   being re-broadcast through the partition, are sequenced after the
   heal and commit with their client transactions, and its clients
   resume. *)
let test_long_partition_keeps_batches () =
  let faults =
    Sim.Faults.(none |> partition ~from_us:2_000_000 ~heal_us:102_000_000 ~island:[ 0 ])
  in
  let r =
    Harness.Scenario.run ~seed:3L ~faults
      (Option.get (Protocol.Registry.get "pompe"))
      ~n:4 ~load:(Harness.Scenario.Closed 2) ~duration_us:130_000_000 ()
  in
  let from_0 =
    List.length
      (List.filter (fun (key, _) -> String.starts_with ~prefix:"0/" key) r.honest_logs.(1))
  in
  Alcotest.(check (list string)) "clean" []
    (List.map
       (fun (f : Harness.Oracle.finding) -> f.oracle)
       (Harness.Oracle.check ~liveness:Harness.Oracle.Off r));
  Alcotest.(check bool) (Printf.sprintf "%d node-0 batches in node 1's log" from_0) true (from_0 >= 10);
  Alcotest.(check bool)
    (Printf.sprintf "node 0's clients submitted %d" r.submitted_by.(0))
    true
    (r.submitted_by.(0) >= 20)

(* One real node [id] among stub peers that record what reaches them
   as (peer, src, body); [inject ~src body] delivers one message to the
   node (1 ms wire) and runs the engine 50 ms on; [idle us] runs it on.
   The node is not started unless the case starts it, so its replica
   neither proposes nor arms view timers. *)
type hand_fed = {
  node : Pompe.Node.t;
  inject : src:int -> Pompe.Types.body -> unit;
  idle : int -> unit;
  inbox : unit -> (int * int * Pompe.Types.body) list;
}

let hand_fed ?on_observe ~id () =
  let n = 4 in
  let engine = Sim.Engine.create ~seed:5L () in
  let cfg = { (Pompe.Config.default ~n) with delta_us = 10_000; batch_size = 1 } in
  let net =
    Sim.Network.create engine ~n ~latency:(Sim.Latency.constant 1_000)
      ~cost:(fun ~dst:_ b -> Pompe.Types.msg_cost Sim.Costs.default b)
      ~size:Pompe.Types.msg_size ()
  in
  let node = Pompe.Node.create cfg net ~id ?on_observe () in
  let inbox = ref [] in
  for peer = 0 to n - 1 do
    if peer <> id then
      Sim.Network.register net ~id:peer (fun ~src body -> inbox := (peer, src, body) :: !inbox)
  done;
  let idle us = Sim.Engine.run engine ~until:(Sim.Engine.now engine + us) in
  let inject ~src body =
    Sim.Network.send net ~src ~dst:id body;
    idle 50_000
  in
  { node; inject; idle; inbox = (fun () -> List.rev !inbox) }

let foreign_batch ?(index = 0) ~proposer () =
  {
    Lyra.Types.iid = { proposer; index };
    txs = [| { Lyra.Types.tx_id = "t"; payload = "p"; submitted_at = 0; origin = proposer } |];
    obf = Lyra.Types.Clear;
    created_at = 0;
  }

(* A proposer that retries its Order_req gets the timestamp this node
   signed on first receipt, not a fresh clock reading. *)
let test_duplicate_order_req () =
  let h = hand_fed ~id:0 () in
  let batch = foreign_batch ~proposer:2 () in
  h.inject ~src:2 (Order_req { batch });
  h.idle 300_000;
  h.inject ~src:2 (Order_req { batch });
  let ts =
    List.filter_map
      (function 2, 0, Pompe.Types.Ts_resp { ts; _ } -> Some ts | _ -> None)
      (h.inbox ())
  in
  match ts with
  | [ first; again ] ->
      Alcotest.(check int) "same timestamp" first again;
      Alcotest.(check bool) "signed on first receipt" true (first < 300_000)
  | l -> Alcotest.failf "%d Ts_resps" (List.length l)

(* A repeated Sequenced is admitted once: it counts once, and the block
   this node then proposes as view 1's leader carries the batch once. *)
let test_duplicate_sequenced () =
  let h = hand_fed ~id:1 () in
  let iid = { Lyra.Types.proposer = 2; index = 0 } in
  let proofs = List.map (fun signer -> { Pompe.Types.signer; ts = 1_000 }) [ 0; 2; 3 ] in
  for _ = 1 to 3 do
    h.inject ~src:2 (Sequenced { iid; seq = 1_000; proofs })
  done;
  Alcotest.(check int) "sequenced once" 1 (Pompe.Node.sequenced_count h.node);
  Pompe.Node.start h.node;
  h.idle 50_000;
  let proposed =
    List.concat_map
      (function
        | 0, 1, Pompe.Types.Hs (Proposal b) -> List.map (fun (c : Pompe.Types.cmd) -> c.c_iid) b.cmds
        | _ -> [])
      (h.inbox ())
  in
  Alcotest.(check bool) "one command for the batch" true (proposed = [ iid ])

(* Order_fetch is answered by any node holding the payload: with the
   peer's batch it holds and with its own batch, never with an index it
   has no payload for (one it only saw sequenced, one it never saw, an
   own index it never proposed). *)
let test_order_fetch_served_for_held () =
  let h = hand_fed ~id:0 () in
  h.inject ~src:2 (Order_req { batch = foreign_batch ~proposer:2 () });
  h.inject ~src:1
    (Sequenced
       {
         iid = { proposer = 1; index = 0 };
         seq = 1_000;
         proofs = List.map (fun signer -> { Pompe.Types.signer; ts = 1_000 }) [ 1; 2; 3 ];
       });
  Pompe.Node.start h.node;
  ignore (Pompe.Node.submit h.node ~payload:"own" : string);
  h.idle 100_000;
  List.iter
    (fun (proposer, index) -> h.inject ~src:3 (Order_fetch { iid = { proposer; index } }))
    [ (2, 0); (1, 0); (2, 1); (0, 7); (0, 0) ];
  let served =
    List.filter_map
      (function 3, 0, Pompe.Types.Order_req { batch } -> Some batch.Lyra.Types.iid | _ -> None)
      (h.inbox ())
  in
  (* The proposal's own broadcast reached peer 3 once before the fetches. *)
  Alcotest.(check bool) "held batches served" true
    (served
    = [ { proposer = 0; index = 0 }; { proposer = 2; index = 0 }; { proposer = 0; index = 0 } ])

(* Node [h] commits [batches] through a hand-fed three-chain: blocks
   1..4, block 1 carrying the batches. Sequenced just before their
   commit (~700 ms), they wait only the 16Δ idle margin. *)
let commit_foreign h (batches : Lyra.Types.batch list) =
  let cmds =
    List.map
      (fun (b : Lyra.Types.batch) -> { Pompe.Types.c_iid = b.iid; c_seq = 650_000; c_proof_count = 3 })
      batches
  in
  h.idle 500_000;
  for height = 1 to 4 do
    let parent = if height = 1 then "genesis" else Printf.sprintf "b%d" (height - 1) in
    h.inject ~src:(height mod 4)
      (Hs
         (Proposal
            {
              b_id = Printf.sprintf "b%d" height;
              height;
              parent;
              justify =
                { q_block = parent; q_height = height - 1; voters = Testutil.senders 4 [ 1; 2; 3 ] };
              cmds = (if height = 1 then cmds else []);
              proposer = height mod 4;
            }))
  done

(* Every Hs message drains the execution queue: [k] of them, one per
   50 ms. *)
let drain_steps h k =
  for _ = 1 to k do
    h.inject ~src:3 (Hs (Vote { block_id = "x"; height = 100 }))
  done

(* The peers [h]'s node has sent an Order_fetch to, oldest first. *)
let fetch_peers h =
  List.filter_map (function peer, 0, Pompe.Types.Order_fetch _ -> Some peer | _ -> None) (h.inbox ())

(* The batch ids [h]'s node has sent an Order_fetch for, oldest first. *)
let fetched_iids h =
  List.filter_map (function _, 0, Pompe.Types.Order_fetch { iid } -> Some iid | _ -> None) (h.inbox ())

let ts_resps h =
  List.length (List.filter (function _, 0, Pompe.Types.Ts_resp _ -> true | _ -> false) (h.inbox ()))

(* Node 0 commits proposer 2's batch, and proposer 2 never answers. The
   fetch asks node 2, then 3, then 1 (skipping node 0), and around again,
   one node per 200 ms, more than ten times.
   A copy relayed by node 3 while the fetch runs executes the batch and
   is not timestamped. Relayed with no fetch running, the same copy is
   ignored: no output, no observation, no Ts_resp, and the node still
   fetches the payload once the batch commits. *)
let test_fetch_walks_every_other_node () =
  let h = hand_fed ~id:0 () in
  let batch = foreign_batch ~proposer:2 () in
  commit_foreign h [ batch ];
  (* The 50 ms step at which each fetch went out. *)
  let steps = ref [] in
  for step = 1 to 80 do
    drain_steps h 1;
    let sent = List.length (fetch_peers h) in
    while List.length !steps < sent do
      steps := step :: !steps
    done
  done;
  let peers = fetch_peers h in
  Alcotest.(check bool) (Printf.sprintf "%d fetches" (List.length peers)) true (List.length peers > 10);
  Alcotest.(check (list int)) "proposer, then each other node in turn"
    (List.init (List.length peers) (fun i -> List.nth [ 2; 3; 1 ] (i mod 3)))
    peers;
  let rec gaps = function a :: (b :: _ as rest) -> (b - a) :: gaps rest | _ -> [] in
  List.iter
    (fun gap -> Alcotest.(check int) "200 ms apart" 4 gap)
    (gaps (List.rev !steps));
  Alcotest.(check int) "not executed" 0 (List.length (Pompe.Node.output_log h.node));
  Alcotest.(check int) "one fetch open" 1 (Pompe.Node.open_fetches h.node);
  h.inject ~src:3 (Order_req { batch });
  Alcotest.(check bool) "relayed copy executed" true (outputs_of h.node = [ batch.iid ]);
  Alcotest.(check int) "no Ts_resp" 0 (ts_resps h);
  Alcotest.(check int) "fetch closed" 0 (Pompe.Node.open_fetches h.node);
  let observed = ref 0 in
  let h = hand_fed ~on_observe:(fun _ -> incr observed) ~id:0 () in
  h.inject ~src:3 (Order_req { batch });
  Alcotest.(check int) "unfetched copy: no output" 0 (List.length (Pompe.Node.output_log h.node));
  Alcotest.(check int) "unfetched copy: not observed" 0 !observed;
  Alcotest.(check int) "unfetched copy: no Ts_resp" 0 (ts_resps h);
  Alcotest.(check int) "unfetched copy: no fetch open" 0 (Pompe.Node.open_fetches h.node);
  commit_foreign h [ batch ];
  drain_steps h 4;
  Alcotest.(check (list int)) "payload still fetched" [ 2 ] (fetch_peers h);
  Alcotest.(check int) "still not executed" 0 (List.length (Pompe.Node.output_log h.node))

(* A committed batch whose Order_req never arrived is fetched from its
   proposer; once the payload arrives the batch executes, its fetch row
   goes, and no further Order_fetch goes out, to any node, however long
   the node keeps draining. Late messages for the executed batch are
   handled as for any held batch: the proposer's retried Order_req gets
   the timestamp signed on arrival, a relayed copy is ignored, and a
   Sequenced is admitted once but executes nothing again. *)
let test_payload_clears_fetch () =
  let h = hand_fed ~id:0 () in
  let batch = foreign_batch ~proposer:2 () in
  commit_foreign h [ batch ];
  drain_steps h 4;
  Alcotest.(check (list int)) "fetched from the proposer" [ 2 ] (fetch_peers h);
  Alcotest.(check int) "not executed" 0 (List.length (Pompe.Node.output_log h.node));
  Alcotest.(check int) "one fetch open" 1 (Pompe.Node.open_fetches h.node);
  h.inject ~src:2 (Order_req { batch });
  Alcotest.(check bool) "executed" true (outputs_of h.node = [ batch.iid ]);
  Alcotest.(check int) "fetch closed" 0 (Pompe.Node.open_fetches h.node);
  (* Long enough for the fetch to have walked every node many times. *)
  drain_steps h 100;
  Alcotest.(check (list int)) "no further fetch" [ 2 ] (fetch_peers h);
  let ts_to_proposer () =
    List.filter_map (function 2, 0, Pompe.Types.Ts_resp { ts; _ } -> Some ts | _ -> None) (h.inbox ())
  in
  h.inject ~src:2 (Order_req { batch });
  h.inject ~src:3 (Order_req { batch });
  (match ts_to_proposer () with
  | [ first; again ] -> Alcotest.(check int) "retry: same timestamp" first again
  | l -> Alcotest.failf "%d Ts_resps to the proposer" (List.length l));
  Alcotest.(check int) "no Ts_resp to the relay" 2 (ts_resps h);
  let proofs = List.map (fun signer -> { Pompe.Types.signer; ts = 650_000 }) [ 1; 2; 3 ] in
  for _ = 1 to 2 do
    h.inject ~src:2 (Sequenced { iid = batch.iid; seq = 650_000; proofs })
  done;
  drain_steps h 4;
  Alcotest.(check int) "late Sequenced admitted once" 1 (Pompe.Node.sequenced_count h.node);
  Alcotest.(check bool) "executed once" true (outputs_of h.node = [ batch.iid ]);
  Alcotest.(check int) "no fetch reopened" 0 (Pompe.Node.open_fetches h.node)

(* Two committed batches miss their payloads. While execution waits on
   the first, the second is fetched too, in the same drain: the payloads
   arrive together rather than one fetch after another. The second's
   payload alone executes nothing; the first's then executes both, in
   order. *)
let test_missing_payloads_fetched_together () =
  let h = hand_fed ~id:0 () in
  let first = foreign_batch ~proposer:2 () and second = foreign_batch ~index:1 ~proposer:2 () in
  commit_foreign h [ first; second ];
  drain_steps h 4;
  Alcotest.(check bool) "both fetched from the proposer at once" true
    (fetched_iids h = [ first.iid; second.iid ] && fetch_peers h = [ 2; 2 ]);
  Alcotest.(check int) "two fetches open" 2 (Pompe.Node.open_fetches h.node);
  h.inject ~src:3 (Order_req { batch = second });
  Alcotest.(check int) "second alone: nothing executed" 0 (List.length (Pompe.Node.output_log h.node));
  Alcotest.(check int) "second's fetch closed" 1 (Pompe.Node.open_fetches h.node);
  h.inject ~src:1 (Order_req { batch = first });
  Alcotest.(check bool) "both executed, in order" true (outputs_of h.node = [ first.iid; second.iid ]);
  Alcotest.(check int) "no fetch open" 0 (Pompe.Node.open_fetches h.node)

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
    Alcotest.test_case "block ids pinned" `Quick test_block_ids_pinned;
    QCheck_alcotest.to_alcotest prop_exec_queue_matches_sorted_list;
    Alcotest.test_case "missing payload fetched from another holder" `Quick
      test_missing_payload_fetched_from_holder;
    Alcotest.test_case "collects bounded" `Quick test_collects_bounded;
    Alcotest.test_case "one silent link commits" `Quick test_one_silent_link_commits;
    Alcotest.test_case "long partition keeps the proposer's batches" `Quick
      test_long_partition_keeps_batches;
    Alcotest.test_case "duplicate Order_req keeps its timestamp" `Quick test_duplicate_order_req;
    Alcotest.test_case "duplicate Sequenced admitted once" `Quick test_duplicate_sequenced;
    Alcotest.test_case "Order_fetch served for held batches" `Quick test_order_fetch_served_for_held;
    Alcotest.test_case "payload clears the fetch wait" `Quick test_payload_clears_fetch;
    Alcotest.test_case "fetch walks every other node" `Quick test_fetch_walks_every_other_node;
    Alcotest.test_case "missing payloads fetched together" `Quick
      test_missing_payloads_fetched_together;
  ]
