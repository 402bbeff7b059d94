(* The open-loop workload engine: O(1)-state aggregate arrival
   processes, load shapes, the MEV searcher flow, and the scenario
   integration. *)

(* An engine wired to a sink that assigns ids and echoes commits back
   after [echo_delay_us] — consensus-free plumbing for engine tests. *)
let make_sink ?(echo_delay_us = 2_000) engine =
  let wl = ref None in
  let next = ref 0 in
  let submit ~node:_ ~payload =
    let tx_id = "t" ^ string_of_int !next in
    incr next;
    Sim.Engine.schedule engine ~delay:echo_delay_us (fun () ->
        match !wl with
        | Some w ->
            Workload.Engine.on_commit w ~tx_id ~payload
              ~now_us:(Sim.Engine.now engine)
        | None -> ());
    tx_id
  in
  (wl, submit)

let stream ?(clients = 10_000) ?(rate = 0.01) ?(shape = Workload.Engine.Constant)
    ?(mix = Workload.Engine.Fixed { size = 8 }) name =
  { Workload.Engine.name; clients; rate_per_client = rate; shape; mix }

let test_constant_rate () =
  let engine = Sim.Engine.create () in
  let wl, submit = make_sink engine in
  (* 10k clients × 0.01 tx/s = 100 tx/s aggregate *)
  let w =
    Workload.Engine.create engine
      (Workload.Engine.spec [ stream "flat" ])
      ~nodes:3 ~submit ()
  in
  wl := Some w;
  Workload.Engine.start w;
  Sim.Engine.run engine ~until:10_000_000;
  let n = Workload.Engine.total_submitted w in
  (* Poisson(1000) over 10 s *)
  Alcotest.(check bool) (Printf.sprintf "~1000 arrivals (%d)" n) true
    (n > 800 && n < 1200);
  Workload.Engine.stop w;
  Sim.Engine.run engine ~until:10_100_000;
  Alcotest.(check int) "all committed after drain"
    (Workload.Engine.total_submitted w)
    (Workload.Engine.total_committed w);
  Alcotest.(check int) "nothing pending" 0 (Workload.Engine.pending_count w);
  match Workload.Engine.summaries w with
  | [ s ] ->
      Alcotest.(check int) "summary submitted" n s.s_submitted;
      Alcotest.(check int) "summary committed" n s.s_committed;
      (* echo delay is the latency, exactly *)
      Alcotest.(check (float 1.0)) "latency = echo delay" 2_000.0 s.s_lat_p50_us
  | l -> Alcotest.fail (Printf.sprintf "%d summaries" (List.length l))

let test_flash_crowd_shape () =
  let engine = Sim.Engine.create () in
  let wl, submit = make_sink engine in
  let shape =
    Workload.Engine.Flash_crowd
      { at_us = 2_000_000; ramp_us = 200_000; peak = 8.0; decay_us = 400_000 }
  in
  let w =
    Workload.Engine.create engine
      (Workload.Engine.spec [ stream ~clients:20_000 ~shape "crowd" ])
      ~nodes:1 ~submit ()
  in
  wl := Some w;
  Workload.Engine.start w;
  Sim.Engine.run engine ~until:2_000_000;
  let before = Workload.Engine.total_submitted w in
  Sim.Engine.run engine ~until:4_000_000;
  let crowd = Workload.Engine.total_submitted w - before in
  (* base 200 tx/s: first 2 s ≈ 400 arrivals; the crowd window holds
     the ramp to 8x plus its decay — at least double the base period *)
  Alcotest.(check bool)
    (Printf.sprintf "flash crowd fires (%d then %d)" before crowd)
    true
    (crowd > 2 * before)

let test_diurnal_bounded () =
  let engine = Sim.Engine.create () in
  let wl, submit = make_sink engine in
  let shape =
    Workload.Engine.Diurnal
      { trough = 0.2; period_us = 1_000_000; phase_us = 0 }
  in
  let w =
    Workload.Engine.create engine
      (Workload.Engine.spec [ stream ~clients:100_000 ~shape "day" ])
      ~nodes:1 ~submit ()
  in
  wl := Some w;
  Workload.Engine.start w;
  Sim.Engine.run engine ~until:5_000_000;
  let n = Workload.Engine.total_submitted w in
  (* base 1000 tx/s; the sinusoid averages (1 + 0.2)/2 = 0.6 of base
     over whole periods: 3000 expected over 5 s *)
  Alcotest.(check bool) (Printf.sprintf "diurnal mean rate (%d)" n) true
    (n > 2_400 && n < 3_600)

(* The pinned scale check: one million modelled clients, one stream,
   O(1) state — the latency recorder must flip to streaming and retain
   nothing, and the engine must keep up with the aggregate rate. *)
let test_million_clients_streaming () =
  let engine = Sim.Engine.create () in
  let wl, submit = make_sink engine in
  let w =
    Workload.Engine.create engine
      (Workload.Engine.spec [ stream ~clients:1_000_000 ~rate:0.1 "million" ])
      ~nodes:1 ~submit ()
  in
  wl := Some w;
  Workload.Engine.start w;
  (* 100k tx/s aggregate for 150 ms ≈ 15k arrivals *)
  Sim.Engine.run engine ~until:150_000;
  Workload.Engine.stop w;
  Sim.Engine.run engine ~until:160_000;
  let n = Workload.Engine.total_submitted w in
  Alcotest.(check bool) (Printf.sprintf "sustained the rate (%d)" n) true
    (n > 12_000);
  let r = Workload.Engine.stream_recorder w 0 in
  Alcotest.(check bool) "streaming engaged" true
    (Metrics.Recorder.is_streaming r);
  Alcotest.(check int) "no raw samples retained" 0
    (Metrics.Recorder.retained_samples r);
  Alcotest.(check int) "latency count = committed" n (Metrics.Recorder.count r)

let test_restart_single_chain () =
  let engine = Sim.Engine.create () in
  let wl, submit = make_sink engine in
  let w =
    Workload.Engine.create engine
      (Workload.Engine.spec [ stream ~clients:100_000 "restart" ])
      ~nodes:1 ~submit ()
  in
  wl := Some w;
  Workload.Engine.start w;
  Sim.Engine.run engine ~until:1_000_000;
  for _ = 1 to 4 do
    Workload.Engine.stop w;
    Workload.Engine.start w
  done;
  let before = Workload.Engine.total_submitted w in
  Sim.Engine.run engine ~until:2_000_000;
  let during = Workload.Engine.total_submitted w - before in
  (* 1000 tx/s for 1 s; ~5000 if restarts stacked arrival chains *)
  Alcotest.(check bool) (Printf.sprintf "single chain (%d)" during) true
    (during > 800 && during < 1300)

let test_searchers_react () =
  let engine = Sim.Engine.create () in
  let wl, submit = make_sink engine in
  let spec =
    Workload.Engine.spec
      ~market:{ Workload.Engine.reserve_x = 10_000_000; reserve_y = 10_000_000 }
      ~searcher:
        {
          Workload.Engine.searchers = 2;
          observe_delay_us = 1_000;
          back_delay_us = 1_000;
          front_fraction = 0.5;
          min_victim_amount = 1;
        }
      [
        stream ~clients:10_000 ~rate:0.01
          ~mix:(Workload.Engine.Amm_swaps { amount_min = 5_000; amount_max = 20_000 })
          "swappers";
      ]
  in
  let w = Workload.Engine.create engine spec ~nodes:1 ~submit () in
  wl := Some w;
  Workload.Engine.start w;
  Sim.Engine.run engine ~until:5_000_000;
  Workload.Engine.stop w;
  Sim.Engine.run engine ~until:5_100_000;
  let users =
    match Workload.Engine.summaries w with
    | [ s ] -> s.s_submitted
    | _ -> Alcotest.fail "one stream expected"
  in
  Alcotest.(check bool) "users swapped" true (users > 100);
  (* every user swap above threshold draws a front-run, and front-runs
     whose shadow quote is positive draw a back-run: ~2 searcher txs
     per user swap *)
  let s = Workload.Engine.searcher_submitted w in
  Alcotest.(check bool)
    (Printf.sprintf "searchers raced (%d for %d users)" s users)
    true
    (s > users);
  Alcotest.(check int) "searcher commits echoed" s
    (Workload.Engine.searcher_committed w)

(* The replay metric itself, on hand-built committed orders: a landed
   sandwich extracts value and inflicts slippage; the same user flow
   without the searcher legs measures zero. *)
let test_mev_replay () =
  let engine = Sim.Engine.create () in
  let spec =
    Workload.Engine.spec
      ~market:{ Workload.Engine.reserve_x = 10_000_000; reserve_y = 10_000_000 }
      ~searcher:
        {
          Workload.Engine.searchers = 1;
          observe_delay_us = 1_000;
          back_delay_us = 1_000;
          front_fraction = 0.5;
          min_victim_amount = 1;
        }
      [
        stream
          ~mix:(Workload.Engine.Amm_swaps { amount_min = 1; amount_max = 2 })
          "users";
      ]
  in
  let w =
    Workload.Engine.create engine spec ~nodes:1
      ~submit:(fun ~node:_ ~payload:_ -> "t")
      ()
  in
  let enc trader dir amount_in =
    App.Amm.encode { App.Amm.trader; dir; amount_in }
  in
  (* front (s0 buys), victim (u0 buys), back (s0 sells out) — the
     textbook sandwich, committed in exactly that order *)
  let front_in = 250_000 and victim_in = 500_000 in
  let probe = App.Amm.create ~reserve_x:10_000_000 ~reserve_y:10_000_000 in
  let front_out =
    match
      App.Amm.apply probe
        { App.Amm.trader = "s0"; dir = App.Amm.X_to_y; amount_in = front_in }
    with
    | Some o -> o
    | None -> Alcotest.fail "probe front rejected"
  in
  let sandwich =
    [
      enc "s0" App.Amm.X_to_y front_in;
      enc "u0" App.Amm.X_to_y victim_in;
      enc "s0" App.Amm.Y_to_x front_out;
      "not-a-swap";
    ]
  in
  (match Workload.Engine.mev_report w ~committed:sandwich with
  | None -> Alcotest.fail "market present but no report"
  | Some m ->
      Alcotest.(check int) "user swaps" 1 m.Workload.Engine.user_swaps;
      Alcotest.(check int) "searcher swaps" 2 m.Workload.Engine.searcher_swaps;
      Alcotest.(check bool)
        (Printf.sprintf "extraction positive (%.0f)"
           m.Workload.Engine.extracted_value_y)
        true
        (m.Workload.Engine.extracted_value_y > 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "victim slipped (%d)"
           m.Workload.Engine.victim_slippage_y)
        true
        (m.Workload.Engine.victim_slippage_y > 0));
  (* searcher-free flow: nothing extracted, nothing slipped *)
  match
    Workload.Engine.mev_report w
      ~committed:[ enc "u0" App.Amm.X_to_y victim_in ]
  with
  | None -> Alcotest.fail "market present but no report"
  | Some m ->
      Alcotest.(check (float 1e-9)) "no extraction" 0.0
        m.Workload.Engine.extracted_value_y;
      Alcotest.(check int) "no slippage" 0 m.Workload.Engine.victim_slippage_y

let test_spec_validation () =
  Alcotest.(check bool) "zero clients rejected" true
    (try
       ignore (Workload.Engine.spec [ stream ~clients:0 "bad" ]);
       false
     with Invalid_argument _ -> true)

(* End-to-end: the scenario driver runs a real protocol under an
   attached workload and surfaces per-stream bookkeeping plus the MEV
   replay in its result. *)
let test_scenario_integration () =
  let wspec =
    Workload.Engine.spec
      ~market:{ Workload.Engine.reserve_x = 50_000_000; reserve_y = 50_000_000 }
      ~searcher:
        {
          Workload.Engine.searchers = 2;
          observe_delay_us = 3_000;
          back_delay_us = 2_000;
          front_fraction = 0.5;
          min_victim_amount = 10_000;
        }
      [
        stream ~clients:100_000 ~rate:0.0005
          ~mix:(Workload.Engine.Kv { keys = 100; zipf = 1.0 })
          "kv";
        stream ~clients:50_000 ~rate:0.0008
          ~mix:(Workload.Engine.Amm_swaps { amount_min = 20_000; amount_max = 60_000 })
          "amm";
      ]
  in
  let r =
    Harness.Scenario.run
      (Protocol.Lyra_adapter.make ())
      ~n:4
      ~load:(Harness.Scenario.Closed 0)
      ~workload:wspec ~duration_us:2_000_000 ()
  in
  Alcotest.(check bool) "prefix safe" true r.prefix_safe;
  Alcotest.(check int) "two streams" 2 (List.length r.workload_streams);
  List.iter
    (fun (s : Workload.Engine.stream_summary) ->
      Alcotest.(check bool)
        (Printf.sprintf "stream %s submitted (%d)" s.s_name s.s_submitted)
        true (s.s_submitted > 0);
      Alcotest.(check bool)
        (Printf.sprintf "stream %s committed (%d of %d)" s.s_name s.s_committed
           s.s_submitted)
        true
        (s.s_committed > 0))
    r.workload_streams;
  match r.mev with
  | None -> Alcotest.fail "AMM market attached but no MEV report"
  | Some m ->
      Alcotest.(check bool) "user swaps replayed" true
        (m.Workload.Engine.user_swaps > 0)

let suite =
  [
    Alcotest.test_case "constant rate" `Quick test_constant_rate;
    Alcotest.test_case "flash crowd" `Quick test_flash_crowd_shape;
    Alcotest.test_case "diurnal bounded" `Quick test_diurnal_bounded;
    Alcotest.test_case "million clients streaming" `Quick
      test_million_clients_streaming;
    Alcotest.test_case "restart keeps single chain" `Quick
      test_restart_single_chain;
    Alcotest.test_case "searchers react" `Quick test_searchers_react;
    Alcotest.test_case "mev replay" `Quick test_mev_replay;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "scenario integration" `Slow test_scenario_integration;
  ]
