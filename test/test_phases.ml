(* Per-batch phase anatomy, read from each node's milestone tracker
   ({!Metrics.Phases}) on whole clusters. *)

let cluster_net engine ~n ~cost ~size =
  Sim.Network.create engine ~n
    ~latency:(Sim.Latency.regional ~jitter:0.01 (Sim.Regions.paper_placement n))
    ~cost ~size ()

(* A started n-node Lyra cluster (batches of 4, 20 ms batch timeout). *)
let lyra_cluster ?(on_observe = fun _ _ -> ()) engine ~n =
  let cfg =
    { (Lyra.Config.default ~n) with batch_size = 4; batch_timeout_us = 20_000 }
  in
  let net =
    cluster_net engine ~n
      ~cost:(fun ~dst:_ m -> Lyra.Types.msg_cost Sim.Costs.default m)
      ~size:Lyra.Types.msg_size
  in
  let nodes =
    Array.init n (fun id -> Lyra.Node.create cfg net ~id ~on_observe:(on_observe id) ())
  in
  Array.iter Lyra.Node.start nodes;
  nodes

let pompe_cluster ?(on_observe = fun _ _ -> ()) engine ~n =
  let net =
    cluster_net engine ~n
      ~cost:(fun ~dst:_ b -> Pompe.Types.msg_cost Sim.Costs.default b)
      ~size:Pompe.Types.msg_size
  in
  let cfg = Pompe.Config.default ~n in
  let nodes =
    Array.init n (fun id -> Pompe.Node.create cfg net ~id ~on_observe:(on_observe id) ())
  in
  Array.iter Pompe.Node.start nodes;
  nodes

(* Samples each of [tracker]'s recorders holds now. *)
let counts tracker =
  List.map (fun (l, r) -> (l, Metrics.Recorder.count r)) (Metrics.Phases.pairs tracker)

(* Exactly one batch finished since [before] (a {!counts} snapshot):
   every span has one new sample, every sample is non-negative, each
   [(parts, whole)] chain adds up, and no entry is left open. *)
let check_one_batch tracker ~before chains =
  let fresh =
    List.map
      (fun (l, r) ->
        let a = Metrics.Recorder.to_array r in
        let k = List.assoc l before in
        (l, Array.to_list (Array.sub a k (Array.length a - k))))
      (Metrics.Phases.pairs tracker)
  in
  let one l =
    match List.assoc l fresh with
    | [ v ] -> v
    | vs -> Alcotest.failf "%s: %d new samples, expected 1" l (List.length vs)
  in
  List.iter
    (fun (l, _) ->
      let v = one l in
      if v < 0.0 then Alcotest.failf "%s: negative span %g ms" l v)
    fresh;
  List.iter
    (fun (parts, whole) ->
      Alcotest.(check (float 1e-6))
        (String.concat " + " parts ^ " = " ^ whole)
        (one whole)
        (List.fold_left (fun acc l -> acc +. one l) 0.0 parts))
    chains;
  Alcotest.(check (list int)) "nothing open" [] (Metrics.Phases.open_keys tracker)

(* One own Lyra batch, proposed after the distance warm-up, records one
   sample per span, and the spans tile its pipeline: BOC decides after
   VVB delivery plus the DBFT decision, and the batch is emitted after
   the decision plus the accept wait and the reveal. *)
let test_lyra_batch_anatomy () =
  let engine = Sim.Engine.create ~seed:7L () in
  let nodes = lyra_cluster engine ~n:4 in
  Sim.Engine.run engine ~until:1_500_000;
  let tracker = Lyra.Node.phases nodes.(0) in
  let before = counts tracker in
  for _ = 1 to 4 do
    ignore (Lyra.Node.submit nodes.(0) ~payload:(String.make 16 'a') : string)
  done;
  Sim.Engine.run engine ~until:4_000_000;
  Alcotest.(check bool) "output" true
    (List.exists
       (fun (o : Lyra.Node.output) -> Int.equal o.batch.iid.proposer 0)
       (Lyra.Node.output_log nodes.(1)));
  check_one_batch tracker ~before
    [
      ([ "vvb_deliver"; "dbft_decide" ], "boc_decide");
      ([ "boc_decide"; "accept_wait"; "reveal" ], "e2e");
    ]

(* One own Pompē batch: ordering, consensus on its sequence number and
   the wait for stable execution add up to its end-to-end latency. *)
let test_pompe_batch_anatomy () =
  let engine = Sim.Engine.create ~seed:7L () in
  let nodes = pompe_cluster engine ~n:4 in
  Sim.Engine.run engine ~until:1_500_000;
  let tracker = Pompe.Node.phases nodes.(0) in
  let before = counts tracker in
  for _ = 1 to 4 do
    ignore (Pompe.Node.submit nodes.(0) ~payload:(String.make 16 'a') : string)
  done;
  Sim.Engine.run engine ~until:6_000_000;
  check_one_batch tracker ~before
    [ ([ "order"; "consensus"; "stable_exec" ], "e2e") ]

(* A node's open tracker entries are exactly its own batches that were
   started but neither output nor dropped. Every protocol sends its own
   batches to itself, so a batch counts as started once its proposer's
   [on_observe] has seen it. *)
type probe = {
  submit : unit -> unit;
  own_outputs : unit -> int list;  (** indices of own output batches *)
  dropped : unit -> int;  (** entries a protocol rule closed early *)
  tracker : Metrics.Phases.t;
}

let own ~id iids =
  List.filter_map
    (fun (iid : Lyra.Types.iid) ->
      if Int.equal iid.proposer id then Some iid.index else None)
    iids

let lyra_probes engine ~on_observe ~n =
  Array.mapi
    (fun id node ->
      {
        submit = (fun () -> ignore (Lyra.Node.submit node ~payload:"lyra-tx" : string));
        own_outputs =
          (fun () ->
            own ~id
              (List.map
                 (fun (o : Lyra.Node.output) -> o.batch.iid)
                 (Lyra.Node.output_log node)));
        (* A fault-free run never syncs its log: only value-0 decisions drop. *)
        dropped = (fun () -> Lyra.Node.own_rejected node);
        tracker = Lyra.Node.phases node;
      })
    (lyra_cluster ~on_observe engine ~n)

let pompe_probes engine ~on_observe ~n =
  Array.mapi
    (fun id node ->
      {
        submit = (fun () -> ignore (Pompe.Node.submit node ~payload:"pompe-tx" : string));
        own_outputs =
          (fun () ->
            own ~id
              (List.map
                 (fun (o : Pompe.Node.output) -> o.batch.iid)
                 (Pompe.Node.output_log node)));
        dropped = (fun () -> 0);
        tracker = Pompe.Node.phases node;
      })
    (pompe_cluster ~on_observe engine ~n)

let hotstuff_probes engine ~on_observe ~n =
  let net =
    cluster_net engine ~n
      ~cost:(fun ~dst:_ m -> Hotstuff.Smr.msg_cost Sim.Costs.default m)
      ~size:Hotstuff.Smr.msg_size
  in
  let cfg = Hotstuff.Smr.default_config ~n in
  let nodes =
    Array.init n (fun id -> Hotstuff.Smr.create cfg net ~id ~on_observe:(on_observe id) ())
  in
  Array.iter Hotstuff.Smr.start nodes;
  Array.mapi
    (fun id node ->
      {
        submit =
          (fun () -> ignore (Hotstuff.Smr.submit node ~payload:"hs-tx" : string));
        own_outputs =
          (fun () ->
            own ~id
              (List.map
                 (fun (o : Hotstuff.Smr.output) -> o.batch.iid)
                 (Hotstuff.Smr.output_log node)));
        dropped = (fun () -> 0);
        tracker = Hotstuff.Smr.phases node;
      })
    nodes

let dag_probes engine ~on_observe ~n =
  let net =
    cluster_net engine ~n
      ~cost:(fun ~dst:_ m -> Dagorder.Node.msg_cost Sim.Costs.default m)
      ~size:Dagorder.Node.msg_size
  in
  let cfg = Dagorder.Node.default_config ~n in
  let nodes =
    Array.init n (fun id -> Dagorder.Node.create cfg net ~id ~on_observe:(on_observe id) ())
  in
  Array.iter Dagorder.Node.start nodes;
  Array.mapi
    (fun id node ->
      {
        submit =
          (fun () -> ignore (Dagorder.Node.submit node ~payload:"dag-tx" : string));
        own_outputs =
          (fun () ->
            own ~id
              (List.map
                 (fun (o : Dagorder.Node.output) -> o.delivery.batch.iid)
                 (Dagorder.Node.output_log node)));
        dropped = (fun () -> 0);
        tracker = Dagorder.Node.phases node;
      })
    nodes

let test_open_entries make () =
  let n = 4 in
  let engine = Sim.Engine.create ~seed:7L () in
  let started = Array.make n [] in
  let on_observe id (b : Lyra.Types.batch) =
    if Int.equal b.iid.proposer id then started.(id) <- b.iid.index :: started.(id)
  in
  let probes = make engine ~on_observe ~n in
  (* Load up to the cut-off, so some batches are still in flight. *)
  let until = 4_000_000 in
  let rec tick at =
    if at < until then
      Sim.Engine.schedule engine ~delay:(at - Sim.Engine.now engine) (fun () ->
          Array.iter (fun p -> p.submit (); p.submit ()) probes;
          tick (at + 100_000))
  in
  tick 100_000;
  Sim.Engine.run engine ~until;
  let total_open = ref 0 and total_out = ref 0 in
  Array.iteri
    (fun id p ->
      let outs = p.own_outputs () in
      let pending =
        List.filter (fun i -> not (List.mem i outs)) started.(id)
        |> List.sort_uniq Int.compare
      in
      let open_ = Metrics.Phases.open_keys p.tracker in
      let tag s = Printf.sprintf "node %d: %s" id s in
      Alcotest.(check bool) (tag "open entries were started, not output") true
        (List.for_all (fun k -> List.mem k pending) open_);
      Alcotest.(check int) (tag "open = started - output - dropped")
        (List.length pending - p.dropped ())
        (List.length open_);
      total_open := !total_open + List.length open_;
      total_out := !total_out + List.length outs)
    probes;
  Alcotest.(check bool) "own batches output" true (!total_out > 0);
  Alcotest.(check bool) "batches still in flight" true (!total_open > 0)

let suite =
  [
    Alcotest.test_case "lyra batch anatomy" `Quick test_lyra_batch_anatomy;
    Alcotest.test_case "pompe batch anatomy" `Quick test_pompe_batch_anatomy;
    Alcotest.test_case "open entries lyra" `Quick (test_open_entries lyra_probes);
    Alcotest.test_case "open entries pompe" `Quick (test_open_entries pompe_probes);
    Alcotest.test_case "open entries hotstuff" `Quick
      (test_open_entries hotstuff_probes);
    Alcotest.test_case "open entries dag" `Quick (test_open_entries dag_probes);
  ]
