(* The simulation trace facility: typed categories, lazily rendered
   structured details. *)

let test_record_and_filter () =
  let e = Sim.Engine.create () in
  let tr = Sim.Trace.create e in
  Sim.Trace.record tr ~node:0 Sim.Trace.Fault Sim.Trace.Crash;
  ignore
    (Sim.Engine.schedule e ~delay:100 (fun () ->
         Sim.Trace.record tr ~node:1 Sim.Trace.Phase
           (Sim.Trace.Mark { mark = "decide"; proposer = 1; index = 0 })));
  Sim.Engine.run_until_idle e;
  Alcotest.(check int) "count" 2 (Sim.Trace.count tr);
  (match Sim.Trace.events ~category:Sim.Trace.Phase tr with
  | [ ev ] ->
      Alcotest.(check int) "timestamped" 100 ev.Sim.Trace.at_us;
      Alcotest.(check int) "node" 1 ev.Sim.Trace.node
  | _ -> Alcotest.fail "filter by category");
  Alcotest.(check int) "filter by node" 1
    (List.length (Sim.Trace.events ~node:0 tr));
  Alcotest.(check int) "since" 1
    (List.length (Sim.Trace.events ~since_us:50 tr))

let test_category_subscription () =
  let e = Sim.Engine.create () in
  let tr = Sim.Trace.create ~categories:[ Sim.Trace.Fault ] e in
  Alcotest.(check bool) "enabled" true (Sim.Trace.enabled tr Sim.Trace.Fault);
  Alcotest.(check bool) "disabled" false (Sim.Trace.enabled tr Sim.Trace.Phase);
  Sim.Trace.record tr ~node:0 Sim.Trace.Phase
    (Sim.Trace.Text "not subscribed");
  Sim.Trace.record tr ~node:0 Sim.Trace.Fault (Sim.Trace.Drop { src = 3 });
  Alcotest.(check int) "only subscribed" 1 (Sim.Trace.count tr)

let test_default_excludes_net () =
  (* The per-message Net firehose is opt-in; the default category set
     must leave the hot path disabled. *)
  let e = Sim.Engine.create () in
  let tr = Sim.Trace.create e in
  Alcotest.(check bool) "net off by default" false
    (Sim.Trace.enabled tr Sim.Trace.Net);
  Sim.Trace.record tr ~node:0 Sim.Trace.Net
    (Sim.Trace.Send { dst = 1; bytes = 100 });
  Alcotest.(check int) "not stored" 0 (Sim.Trace.count tr);
  let all = Sim.Trace.create ~categories:[ Sim.Trace.Fault; Sim.Trace.Phase; Sim.Trace.Net ] e in
  Alcotest.(check bool) "opt-in works" true
    (Sim.Trace.enabled all Sim.Trace.Net)

let test_capacity_bound () =
  let e = Sim.Engine.create () in
  let tr = Sim.Trace.create ~capacity:10 e in
  for i = 1 to 25 do
    Sim.Trace.record tr ~node:0 Sim.Trace.Fault (Sim.Trace.Drop { src = i })
  done;
  Alcotest.(check int) "bounded" 10 (Sim.Trace.count tr);
  Alcotest.(check int) "dropped" 15 (Sim.Trace.dropped tr);
  (* oldest evicted: survivors are 16..25 *)
  match Sim.Trace.events tr with
  | { Sim.Trace.detail = Sim.Trace.Drop { src }; _ } :: _ ->
      Alcotest.(check int) "oldest kept" 16 src
  | _ -> Alcotest.fail "empty or wrong payload"

let test_lazy_rendering () =
  (* Details are variants: the log holds payloads, never strings. *)
  let e = Sim.Engine.create () in
  let tr = Sim.Trace.create ~categories:[ Sim.Trace.Fault; Sim.Trace.Phase; Sim.Trace.Net ] e in
  Sim.Trace.record tr ~node:2 Sim.Trace.Phase
    (Sim.Trace.Span { span = "boc"; from_us = 40 });
  Sim.Trace.record tr ~node:2 Sim.Trace.Net
    (Sim.Trace.Send { dst = 0; bytes = 512 });
  (match Sim.Trace.events tr with
  | [ { Sim.Trace.detail = Sim.Trace.Span { span = "boc"; from_us = 40 }; _ };
      { Sim.Trace.detail = Sim.Trace.Send { dst = 0; bytes = 512 }; _ } ] -> ()
  | _ -> Alcotest.fail "span and send payloads not kept as recorded");
  Alcotest.(check int) "filtered" 1
    (List.length (Sim.Trace.events ~category:Sim.Trace.Net tr))

let cluster_net ?trace engine ~n ~cost ~size =
  Sim.Network.create engine ~n
    ~latency:(Sim.Latency.regional ~jitter:0.01 (Sim.Regions.paper_placement n))
    ?trace ~cost ~size ()

(* A started n-node Lyra cluster (batches of 4, 20 ms batch timeout). *)
let lyra_cluster ?trace engine ~n =
  let cfg =
    { (Lyra.Config.default ~n) with batch_size = 4; batch_timeout_us = 20_000 }
  in
  let net =
    cluster_net ?trace engine ~n
      ~cost:(fun ~dst:_ m -> Lyra.Types.msg_cost Sim.Costs.default m)
      ~size:Lyra.Types.msg_size
  in
  let nodes = Array.init n (fun id -> Lyra.Node.create cfg net ~id ()) in
  Array.iter Lyra.Node.start nodes;
  (net, nodes)

(* Tracing with every category unsubscribed is behaviourally free: the
   same seeded Lyra cluster executes the identical event schedule with
   and without a trace installed (phase milestones and fault hooks all
   funnel through [Trace.record], whose disabled path is one bitmask
   test and no scheduling). *)
let test_zero_cost_when_disabled () =
  let run_cluster ~with_trace =
    let engine = Sim.Engine.create ~seed:11L () in
    let trace =
      if with_trace then Some (Sim.Trace.create ~categories:[] engine) else None
    in
    let net, nodes = lyra_cluster ?trace engine ~n:4 in
    for k = 0 to 9 do
      ignore
        (Sim.Engine.schedule engine
           ~delay:(100_000 * (k + 1))
           (fun () ->
             Array.iter
               (fun nd ->
                 ignore
                   (Lyra.Node.submit nd ~payload:(String.make 16 'z') : string))
               nodes)
          : Sim.Engine.timer)
    done;
    Sim.Engine.run engine ~until:3_000_000;
    ( Sim.Engine.events_executed engine,
      Sim.Network.messages_sent net,
      List.length (Lyra.Node.output_log nodes.(0)),
      match trace with Some tr -> Sim.Trace.count tr | None -> 0 )
  in
  let ev_a, msg_a, out_a, _ = run_cluster ~with_trace:false in
  let ev_b, msg_b, out_b, stored = run_cluster ~with_trace:true in
  Alcotest.(check bool) "cluster committed" true (out_a > 0);
  Alcotest.(check int) "events executed identical" ev_a ev_b;
  Alcotest.(check int) "messages identical" msg_a msg_b;
  Alcotest.(check int) "commits identical" out_a out_b;
  Alcotest.(check int) "nothing stored" 0 stored

(* ------------------------------------------------------------------ *)
(* Phase events come from each node's milestone tracker.               *)
(* ------------------------------------------------------------------ *)

let phase_events ?since_us tr ~node =
  List.map
    (fun (ev : Sim.Trace.event) ->
      match ev.detail with
      | Sim.Trace.Mark { mark; proposer; index } ->
          (Printf.sprintf "%s %d/%d" mark proposer index, ev.at_us, ev.at_us)
      | Sim.Trace.Span { span; from_us } -> (span, from_us, ev.at_us)
      | _ -> ("?", 0, 0))
    (Sim.Trace.events ?since_us ~node ~category:Sim.Trace.Phase tr)

(* One own Lyra batch, proposed after the distance warm-up: the trace
   holds its propose mark and all six spans, in pipeline order, each
   span starting where its declared start milestone was stamped. *)
let test_lyra_batch_anatomy () =
  let engine = Sim.Engine.create ~seed:7L () in
  let tr = Sim.Trace.create ~categories:[ Sim.Trace.Phase ] engine in
  let _, nodes = lyra_cluster ~trace:tr engine ~n:4 in
  Sim.Engine.run engine ~until:1_500_000;
  for _ = 1 to 4 do
    ignore (Lyra.Node.submit nodes.(0) ~payload:(String.make 16 'a') : string)
  done;
  Sim.Engine.run engine ~until:4_000_000;
  Alcotest.(check bool) "output" true
    (List.exists
       (fun (o : Lyra.Node.output) -> Int.equal o.batch.iid.proposer 0)
       (Lyra.Node.output_log nodes.(1)));
  match phase_events ~since_us:1_500_000 tr ~node:0 with
  | [
   (mark, propose, _);
   ("vvb_deliver", p1, deliver);
   ("dbft_decide", d1, decide);
   ("boc_decide", p2, decide2);
   ("accept_wait", dc, take);
   ("reveal", t1, emit);
   ("e2e", p3, emit2);
  ] ->
      Alcotest.(check bool) "propose mark" true
        (String.starts_with ~prefix:"propose 0/" mark);
      Alcotest.(check (list int)) "spans start at propose" [ propose; propose; propose ]
        [ p1; p2; p3 ];
      Alcotest.(check (list int)) "each span starts where the last ended"
        [ deliver; decide; take ] [ d1; dc; t1 ];
      Alcotest.(check (list int)) "shared ends" [ decide; emit ] [ decide2; emit2 ];
      Alcotest.(check bool) "milestones in order" true
        (propose <= deliver && deliver <= decide && decide <= take && take <= emit);
      Alcotest.(check (list int)) "nothing open" []
        (Metrics.Phases.open_keys (Lyra.Node.phases nodes.(0)))
  | evs ->
      Alcotest.failf "unexpected phase trace: %s"
        (String.concat "; " (List.map (fun (l, _, _) -> l) evs))

(* A node's open tracker entries are exactly its own batches that were
   started (a [propose] mark) but neither output nor dropped. *)
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

let lyra_probes engine tr ~n =
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
    (snd (lyra_cluster ~trace:tr engine ~n))

let pompe_probes engine tr ~n =
  let net =
    cluster_net ~trace:tr engine ~n
      ~cost:(fun ~dst:_ b -> Pompe.Types.msg_cost Sim.Costs.default b)
      ~size:Pompe.Types.msg_size
  in
  let cfg = Pompe.Config.default ~n in
  let nodes = Array.init n (fun id -> Pompe.Node.create cfg net ~id ()) in
  Array.iter Pompe.Node.start nodes;
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
        dropped = (fun () -> Pompe.Node.order_giveups node);
        tracker = Pompe.Node.phases node;
      })
    nodes

let hotstuff_probes engine tr ~n =
  let net =
    cluster_net ~trace:tr engine ~n
      ~cost:(fun ~dst:_ m -> Hotstuff.Smr.msg_cost Sim.Costs.default m)
      ~size:Hotstuff.Smr.msg_size
  in
  let cfg = Hotstuff.Smr.default_config ~n in
  let nodes = Array.init n (fun id -> Hotstuff.Smr.create cfg net ~id ()) in
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

let dag_probes engine tr ~n =
  let net =
    cluster_net ~trace:tr engine ~n
      ~cost:(fun ~dst:_ m -> Dagorder.Node.msg_cost Sim.Costs.default m)
      ~size:Dagorder.Node.msg_size
  in
  let cfg = Dagorder.Node.default_config ~n in
  let nodes = Array.init n (fun id -> Dagorder.Node.create cfg net ~id ()) in
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
  let tr = Sim.Trace.create ~categories:[ Sim.Trace.Phase ] engine in
  let probes = make engine tr ~n in
  (* Load up to the cut-off, so some batches are still in flight. *)
  let until = 4_000_000 in
  let rec tick at =
    if at < until then
      ignore
        (Sim.Engine.schedule engine ~delay:(at - Sim.Engine.now engine) (fun () ->
             Array.iter (fun p -> p.submit (); p.submit ()) probes;
             tick (at + 100_000))
          : Sim.Engine.timer)
  in
  tick 100_000;
  Sim.Engine.run engine ~until;
  let total_open = ref 0 and total_out = ref 0 in
  Array.iteri
    (fun id p ->
      let started =
        List.filter_map
          (fun (ev : Sim.Trace.event) ->
            match ev.detail with
            | Sim.Trace.Mark { mark = "propose"; index; _ } -> Some index
            | _ -> None)
          (Sim.Trace.events ~node:id ~category:Sim.Trace.Phase tr)
      in
      let outs = p.own_outputs () in
      let pending =
        List.filter (fun i -> not (List.mem i outs)) started
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
    Alcotest.test_case "record and filter" `Quick test_record_and_filter;
    Alcotest.test_case "category subscription" `Quick test_category_subscription;
    Alcotest.test_case "net opt-in" `Quick test_default_excludes_net;
    Alcotest.test_case "capacity bound" `Quick test_capacity_bound;
    Alcotest.test_case "lazy rendering" `Quick test_lazy_rendering;
    Alcotest.test_case "disabled tracing is free" `Slow
      test_zero_cost_when_disabled;
    Alcotest.test_case "lyra batch anatomy" `Quick test_lyra_batch_anatomy;
    Alcotest.test_case "open entries lyra" `Quick (test_open_entries lyra_probes);
    Alcotest.test_case "open entries pompe" `Quick (test_open_entries pompe_probes);
    Alcotest.test_case "open entries hotstuff" `Quick
      (test_open_entries hotstuff_probes);
    Alcotest.test_case "open entries dag" `Quick (test_open_entries dag_probes);
  ]
