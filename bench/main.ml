(* Regenerates every table and figure of the paper's evaluation (§VI)
   plus the supporting microbenchmarks. Run all experiments with
   `dune exec bench/main.exe`, or one with e.g.
   `dune exec bench/main.exe -- fig2`. `--smoke` runs everything at
   tiny n/duration so `dune runtest` exercises the whole harness.
   See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
   paper-vs-measured.

   Every experiment is protocol-generic: it iterates a list of
   (name, adapter) pairs — Protocol.Registry.all or a locally tweaked
   variant — so a new baseline shows up in every table by registering
   an adapter, with no per-experiment code.

   Each experiment is one [Experiment.experiment] record: how to run
   it, the sections it prints, the fields of its BENCH_<NAME>.json
   artifact and the guards its results must pass. Row tables are
   described once as a column list from which the text table, the
   JSON rows and their schema all derive (bench/experiment.ml). The
   substrate self-benchmarks — SIMSPEED, MICRO and WORKLOAD's
   million-client engine check — live in bench/selfbench.ml. *)

open Experiment

(* ------------------------------------------------------------------ *)
(* FIG1 — triangle-inequality front-running (Fig. 1 + §V-E).           *)
(* ------------------------------------------------------------------ *)

let fig1 =
  let o ((_, o) : string * Attacks.Frontrun.outcome) = o in
  exp "fig1"
    (fun () ->
      List.map
        (fun protocol ->
          (protocol, Attacks.Frontrun.run ~trials:(scale_trials 10) ~protocol ()))
        Attacks.Frontrun.protocols)
    [
      table
        "FIG1  front-running via triangle-inequality violation (Tokyo victim, \
         Singapore attacker, Sydney quorum)"
        [
          text "protocol" fst;
          text "trials" (fun x -> istr (o x).trials);
          text "observed" (fun x -> istr (o x).observed);
          text "launched" (fun x -> istr (o x).launched);
          text "front-run ok" (fun x -> istr (o x).succeeded);
          text "seq gap ms" (fun x -> f1 (o x).victim_first_gap_ms);
        ];
    ]

(* ------------------------------------------------------------------ *)
(* FIG2 — commit latency vs n (closed-loop clients, light load).       *)
(* ------------------------------------------------------------------ *)

(* A per-n sweep row: the result and the first (Lyra) row's value at
   the same n it is compared with. *)
type vs_lyra = { at_n : int; base : float; res : Scenario.result }

(* Run every spec at every n; [base] reads the compared value. *)
let per_n ns specs base =
  List.concat_map
    (fun n ->
      let results = List.map (fun run -> run n) (specs n) in
      let base = match results with r :: _ -> base r | [] -> Float.nan in
      List.map (fun res -> { at_n = n; base; res }) results)
    ns

let fig2 =
  (* Leader-based pipelines have a ~2.7 s closed-loop turnaround: give
     them a window that fits at least one full turn at every n. *)
  let extra = function "lyra" -> 0 | _ -> 3_000_000 in
  (* Smoke also runs one paper-scale row, n=100, so that scale rides
     `dune runtest`. It is tuned for cost, not for the figure: every
     Lyra batch is a full n^2 VSS + consensus wave (~85k messages), so
     Lyra runs a trickle of open load with warmup proposals off; the
     leader-based pipelines need a window past their n=100 closed-loop
     turnaround (~20 s for Pompe). *)
  let smoke_100 =
    [
      (fun n ->
        scenario
          (Protocol.Lyra_adapter.make
             ~tweak:(fun c ->
               {
                 c with
                 Lyra.Config.warmup_proposals = 0;
                 status_interval_us = 100_000;
               })
             ())
          ~n ~load:(Scenario.Open_rate 0.05) ~warmup_us:300_000
          ~duration_us:2_500_000 ());
      (fun n ->
        scenario (Protocol.Pompe_adapter.make ()) ~n
          ~load:(Scenario.Closed 2) ~duration_us:30_000_000 ());
      (fun n ->
        scenario (Protocol.Hotstuff_adapter.make ()) ~n
          ~load:(Scenario.Closed 2) ~duration_us:6_000_000 ());
    ]
  in
  let specs n =
    if !smoke && Int.equal n 100 then smoke_100
    else
      List.map
        (fun (name, p) n ->
          let dur = if n >= 61 then 1_500_000 else 3_000_000 in
          scenario p ~n ~load:(Scenario.Closed 2)
            ~duration_us:(window name (dur + extra name))
            ())
        (Protocol.Registry.all ())
  in
  let cols =
    [
      both "n" "n" J.int istr (fun x -> x.at_n);
      both "protocol" "protocol" J.str Fun.id (fun x -> x.res.protocol);
      both "mean_ms" "mean ms" nnum f0 (fun x -> mean_ms x.res);
      both "p50_ms" "p50 ms" nnum f0 (fun x -> pct 50.0 x.res.latency_ms);
      both "vs_lyra" "vs lyra" nnum ratio2 (fun x -> mean_ms x.res /. x.base);
      json "throughput_tps" nnum (fun x -> x.res.throughput_tps);
      json "committed_txs" J.int (fun x -> x.res.committed_txs);
    ]
  in
  exp "fig2"
    (fun () ->
      per_n (if !smoke then [ 4; 100 ] else [ 5; 10; 16; 31; 61; 100 ]) specs mean_ms)
    [
      table
        "FIG2  commit latency vs n (ms; paper: Lyra < 1 s, ~2x lower than \
         Pompe at n > 60)"
        cols;
    ]
    ~json:[ rows "rows" cols Fun.id ]

(* ------------------------------------------------------------------ *)
(* FIG3 — throughput vs n, and its ABLATE bandwidth sweep.            *)
(* ------------------------------------------------------------------ *)

(* (adapter, per-node offered tx/s) at size n. Lyra is driven like the
   paper drives it: a fixed client rate per node, so offered load grows
   with n. The leader-based baselines get their own benchmarks'
   saturation load, so the curves show their capacity ceiling (leader
   bandwidth + O(n) verifications per batch for Pompe). *)
let saturating n =
  let leader_rate = (if !smoke then 4_000.0 else 120_000.0) /. float_of_int n in
  [
    ( Protocol.Lyra_adapter.make
        ~tweak:(fun c ->
          { c with Lyra.Config.batch_timeout_us = 350_000; max_inflight = 16 })
        (),
      if !smoke then 600.0 else 2_400.0 );
    ( Protocol.Pompe_adapter.make
        ~tweak:(fun c -> { c with Pompe.Config.block_capacity = 64 })
        (),
      leader_rate );
    ( Protocol.Hotstuff_adapter.make
        ~tweak:(fun c -> { c with Hotstuff.Smr.block_capacity = 64 })
        (),
      leader_rate );
  ]

let fig3 =
  let extra = function "lyra" -> 0 | _ -> 2_000_000 in
  let specs n =
    List.map
      (fun (((module P : Protocol.NODE) as p), rate) n ->
        let dur = if n >= 61 then 1_500_000 else 3_000_000 in
        scenario p ~n ~load:(Scenario.Open_rate rate)
          ~duration_us:(window P.name (dur + extra P.name))
          ())
      (saturating n)
  in
  let cols =
    [
      both "n" "n" J.int istr (fun x -> x.at_n);
      both "protocol" "protocol" J.str Fun.id (fun x -> x.res.protocol);
      both "throughput_tps" "tx/s" nnum f0 (fun x -> x.res.throughput_tps);
      both "lyra_ratio" "lyra/this" nnum ratio2 (fun x ->
          x.base /. x.res.throughput_tps);
      json "committed_txs" J.int (fun x -> x.res.committed_txs);
      json "messages" J.int (fun x -> x.res.messages);
      json "bytes" J.int (fun x -> x.res.bytes);
    ]
  in
  exp "fig3"
    (fun () ->
      per_n (fig_ns ()) specs (fun (r : Scenario.result) -> r.throughput_tps))
    [
      table
        "FIG3  throughput vs n (tx/s; paper: Pompe ahead below ~20-30 nodes, \
         Lyra scales to ~240k at n=100, ~7x Pompe)"
        cols;
    ]
    ~json:[ rows "rows" cols Fun.id ]

(* The paper attributes Pompe's decline to the leader bottleneck and
   quadratic verification work. If that attribution is right, the
   leader-based baselines' delivered throughput must track the per-node
   line rate while Lyra (leaderless, O(1) verifications per message)
   barely moves. The sweep varies the modelled WAN bandwidth at n = 31
   under the same saturating load. *)
let ablate =
  let run () =
    let n = small_n 31 in
    List.map
      (fun (label, ns_per_byte) ->
        ( label,
          List.map
            (fun (((module P : Protocol.NODE) as p), rate) ->
              let dur = if String.equal P.name "lyra" then 3_000_000 else 5_000_000 in
              scenario p ~n ~ns_per_byte ~load:(Scenario.Open_rate rate)
                ~duration_us:(window P.name dur) ())
            (saturating n) ))
      (sweep [ ("1 Gb/s", 8); ("200 Mb/s", 40); ("50 Mb/s", 160) ])
  in
  exp "ablate" run
    [
      (fun rows ->
        table
          (Printf.sprintf
             "ABLATE  per-node bandwidth sweep at n=%d (the leader-based \
              baselines track the leader's line rate; Lyra does not)"
             (match rows with (_, r :: _) :: _ -> r.Scenario.n | _ -> 0))
          (text "line rate" fst
          :: List.mapi
               (fun i name ->
                 text (name ^ " tx/s") (fun (_, rs) ->
                     f0 (List.nth rs i : Scenario.result).throughput_tps))
               [ "lyra"; "pompe"; "hotstuff" ])
          rows);
    ]

(* ------------------------------------------------------------------ *)
(* LAT3R — good-case latency is 3 message delays (Thm 3; Pompe: 11).   *)
(* ------------------------------------------------------------------ *)

(* Summary of one non-empty phase recorder. *)
type phase = {
  phase : string;
  samples : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let phase_stats (r : Scenario.result) =
  List.filter_map
    (fun (phase, rec_) ->
      if Metrics.Recorder.is_empty rec_ then None
      else
        let sorted = Metrics.Recorder.sorted rec_ in
        let mean, p50, p95, p99, _ = Metrics.Stats.summary_sorted sorted in
        Some { phase; samples = Array.length sorted; mean; p50; p95; p99 })
    r.phases

let phases_desc =
  J.list
    (J.obj
       [
         J.field "phase" J.str (fun p -> p.phase);
         J.field "samples" J.int (fun p -> p.samples);
         J.field "mean_ms" nnum (fun p -> p.mean);
         J.field "p50_ms" nnum (fun p -> p.p50);
         J.field "p95_ms" nnum (fun p -> p.p95);
         J.field "p99_ms" nnum (fun p -> p.p99);
       ])

type lat3r = { n : int; delta_ms : float; results : (float * Scenario.result) list }

let rounds =
  let run () =
    let n = small_n 16 in
    let results =
      List.map
        (fun (name, p) ->
          scenario p ~n ~load:(Scenario.Closed 1)
            ~duration_us:(window name 4_000_000) ())
        (Protocol.Registry.all ())
    in
    let regions = Array.to_list (Sim.Regions.paper_placement n) in
    let delays =
      List.concat_map (fun a -> List.map (Sim.Regions.one_way_us a) regions) regions
    in
    let delta_ms =
      float_of_int (List.fold_left ( + ) 0 delays)
      /. float_of_int (List.length delays)
      /. 1000.
    in
    { n; delta_ms; results = List.map (fun r -> (delta_ms, r)) results }
  in
  let r ((_, r) : float * Scenario.result) = r in
  let cols =
    [
      text "metric" (fun x -> (r x).protocol);
      json "protocol" J.str (fun x -> (r x).protocol);
      text "mean decide round" (fun x ->
          if String.equal (r x).protocol "lyra" then f3 (r x).decide_rounds
          else "-");
      json "decide_rounds_mean" nnum (fun x -> (r x).decide_rounds);
      both "latency_ms_mean" "commit latency ms (mean)" nnum f0 (fun x ->
          mean_ms (r x));
      text "mean one-way delay ms" (fun (delta, _) -> f1 delta);
      both "latency_in_delays" "end-to-end latency in delays" nnum f1
        (fun (delta, r) -> mean_ms r /. delta);
      json "phases" phases_desc (fun x -> phase_stats (r x));
    ]
  in
  (* The latency anatomy behind those totals: Lyra's boc_decide row is
     Thm 3's claim in the data — mean ≈ 3 one-way delays. *)
  let phase_tables l =
    String.concat ""
      (List.map
         (fun (_, (r : Scenario.result)) ->
           Printf.sprintf "\nLAT3R phases  %s n=%d (own batches, ms)\n%s"
             r.protocol r.n (Scenario.phase_table r))
         l.results)
  in
  let thm3_check l =
    let lyra_boc (_, (r : Scenario.result)) =
      if String.equal r.protocol "lyra" then List.assoc_opt "boc_decide" r.phases
      else None
    in
    match List.find_map lyra_boc l.results with
    | Some rec_ when not (Metrics.Recorder.is_empty rec_) ->
        Printf.sprintf
          "\nLAT3R check  lyra boc_decide mean = %.1f ms = %.2f one-way \
           delays (Thm 3: 3)\n"
          (Metrics.Recorder.mean rec_)
          (Metrics.Recorder.mean rec_ /. l.delta_ms)
    | _ -> ""
  in
  exp "rounds" ~artifact:"lat3r" run
    [
      (fun l ->
        sideways
          "LAT3R  good-case round complexity (BOC decides in round 1 = 3 \
           message delays, Thm 3)"
          cols l.results);
      phase_tables;
      thm3_check;
    ]
    ~json:
      [
        J.field "n" J.int (fun l -> l.n);
        J.field "mean_one_way_delay_ms" J.float (fun l -> l.delta_ms);
        rows "protocols" cols (fun l -> l.results);
      ]

(* ------------------------------------------------------------------ *)
(* LAMBDA — security-parameter sweep (§VI-B: λ = 5 ms suffices).       *)
(* ------------------------------------------------------------------ *)

(* The §VI-B/D sweeps: Lyra variants at n=16 (4 at smoke scale), one
   labelled row per (label, configured adapter). *)
let lyra_sweep load points =
  List.map
    (fun (label, p) ->
      ( label,
        scenario p ~n:(small_n 16) ~load ~duration_us:(window "lyra" 3_000_000) ()
      ))
    (sweep points)

let lambda =
  let run () =
    lyra_sweep (Scenario.Closed 2)
      (List.map
         (fun ms ->
           ( istr ms,
             Protocol.Lyra_adapter.make
               ~tweak:(fun c -> { c with Lyra.Config.lambda_us = ms * 1000 })
               () ))
         [ 1; 2; 5; 10; 20; 50 ])
  in
  exp "lambda" run
    [
      (fun rows ->
        table
          (Printf.sprintf
             "LAMBDA  security parameter sweep at n=%d (paper: 5 ms without \
              performance loss)"
             (n_of rows))
          [ text "lambda ms" fst; c_accept; c_tps; c_latency ]
          rows);
    ]

(* ------------------------------------------------------------------ *)
(* BATCH — batch-size sweep (§VI-B: 800 maximizes throughput).         *)
(* ------------------------------------------------------------------ *)

let batch =
  let offered () = if !smoke then 800.0 else 4_000.0 in
  let run () =
    lyra_sweep
      (Scenario.Open_rate (offered ()))
      (List.map
         (fun bs ->
           ( istr bs,
             Protocol.Lyra_adapter.make
               ~tweak:(fun c ->
                 {
                   c with
                   Lyra.Config.batch_size = bs;
                   batch_timeout_us = 250_000;
                   max_inflight = 16;
                 })
               () ))
         [ 100; 200; 400; 800; 1600; 3200 ])
  in
  exp "batch" run
    [
      (fun rows ->
        table
          (Printf.sprintf "BATCH  batch-size sweep at n=%d, %.0f tx/s per node offered"
             (n_of rows) (offered ()))
          [
            text "batch" fst;
            c_tps;
            c_latency;
            text "p95 ms" (fun x -> f0 (pct 95.0 (res x).latency_ms));
          ]
          rows);
    ]

(* ------------------------------------------------------------------ *)
(* BYZ — Byzantine behaviours (§VI-D).                                 *)
(* ------------------------------------------------------------------ *)

let byz =
  let fmax () = Dbft.Quorums.max_faulty (small_n 16) in
  let run () =
    lyra_sweep (Scenario.Closed 2)
      (List.map
         (fun (name, mis) ->
           ( name,
             Protocol.Lyra_adapter.make
               ~byz:(fun i -> if i < fmax () then mis else None)
               () ))
         [
           ("none", None);
           ("silent", Some Lyra.Misbehavior.Silent);
           ("flood 4/s", Some (Lyra.Misbehavior.Flood { batches_per_sec = 4 }));
           ( "future-seq +3ms",
             Some (Lyra.Misbehavior.Future_seq { offset_us = 3_000 }) );
           ( "future-seq +40ms",
             Some (Lyra.Misbehavior.Future_seq { offset_us = 40_000 }) );
           ("low-status", Some Lyra.Misbehavior.Low_status);
           ("equivocate", Some Lyra.Misbehavior.Equivocate);
           ( "stale-votes 1s",
             Some (Lyra.Misbehavior.Stale_votes { delay_us = 1_000_000 }) );
         ])
  in
  exp "byz" run
    [
      (fun rows ->
        table
          (Printf.sprintf
             "BYZ  Lyra under f=%d Byzantine nodes at n=%d (safety must hold; \
              liveness degrades gracefully)"
             (fmax ()) (n_of rows))
          [
            text "behaviour" fst;
            c_tps;
            c_latency;
            c_accept;
            text "prefix safe" (fun x -> string_of_bool (res x).prefix_safe);
          ]
          rows);
    ]

(* ------------------------------------------------------------------ *)
(* MEV — sandwich extraction on the AMM (§V-E).                        *)
(* ------------------------------------------------------------------ *)

let mev =
  let o ((_, o) : string * Attacks.Sandwich.outcome) = o in
  exp "mev"
    (fun () ->
      List.map
        (fun protocol ->
          (protocol, Attacks.Sandwich.run ~trials:(scale_trials 5) ~protocol ()))
        Attacks.Sandwich.protocols)
    [
      table
        "MEV  sandwich attack on a constant-product AMM (victim swap 500k X)"
        [
          text "protocol" fst;
          text "launched" (fun x -> istr (o x).launched);
          text "attacker profit X" (fun x -> f0 (o x).attacker_profit_x);
          text "victim out Y" (fun x -> f0 (o x).victim_out_mean);
          text "baseline Y" (fun x -> f0 (o x).victim_out_baseline);
          text "victim loss" (fun x ->
              let o = o x in
              Printf.sprintf "%.1f%%"
                (100.
                *. (o.victim_out_baseline -. o.victim_out_mean)
                /. o.victim_out_baseline));
        ];
    ]
    (* Without an attacker the victim's swap must commit: a 0 baseline
       means the protocol lost the victim, not that MEV was blocked. *)
    ~guards:
      (List.map (fun x ->
           guard
             ((o x).victim_out_baseline > 0.)
             "%s baseline run never committed the victim swap" (fst x)))

(* ------------------------------------------------------------------ *)
(* FAIRNESS — the receive-order fairness scorecard (docs/FAIRNESS.md): *)
(* every protocol under honest load, an MEV-searcher AMM workload and  *)
(* a targeted pre-GST eclipse, each scored by Fairness.score. The      *)
(* timestamp-ordered protocols (lyra, dag) should invert least.        *)
(* ------------------------------------------------------------------ *)

let searchers k = { Workload.Engine.default_searcher with searchers = k }

let amm_users scale =
  {
    Workload.Engine.name = "amm-users";
    clients = 50_000;
    rate_per_client = 0.0008 *. scale;
    shape = Workload.Engine.Constant;
    mix = Workload.Engine.Amm_swaps { amount_min = 20_000; amount_max = 80_000 };
  }

let fairness =
  let n = 4 in
  let extra = function "lyra" | "dag" -> 0 | _ -> 3_000_000 in
  let wl_spec =
    Workload.Engine.spec ~market:Workload.Engine.default_market
      ~searcher:(searchers 2)
      [ amm_users 1.0 ]
  in
  let run () =
    List.concat_map
      (fun (name, ((module P : Protocol.NODE) as p)) ->
        let dur = window name (3_000_000 + extra name) in
        [
          ( "honest",
            fun () ->
              scenario p ~n ~load:(Scenario.Closed 2) ~duration_us:dur () );
          ( "frontrun",
            fun () ->
              scenario p ~n ~load:(Scenario.Closed 0) ~workload:wl_spec
                ~duration_us:dur () );
          ( "eclipse",
            fun () ->
              (* One victim's links are slowed until a GST in the
                 middle of the measurement window, so half the run's
                 receive orders disagree with the cluster's. *)
              let gst = P.default_warmup_us + (dur / 2) in
              scenario p ~n ~load:(Scenario.Closed 2)
                ~adversary:
                  (Sim.Adversary.Targeted
                     { gst; max_extra = 120_000; victims = [ 1 ] })
                ~duration_us:dur () );
        ]
        |> List.map (fun (scenario, f) -> (scenario, f ())))
      (Protocol.Registry.all ())
  in
  let report x =
    match (res x).fairness with
    | Some f -> f
    | None -> failwith ("fairness: no report for " ^ (res x).protocol)
  in
  let cols =
    [
      both "protocol" "protocol" J.str Fun.id (fun x -> (res x).protocol);
      both "scenario" "scenario" J.str Fun.id fst;
      both "committed_txs" "committed" J.int istr (fun x ->
          (res x).committed_txs);
      text "pairs" (fun x -> istr (report x).pairs);
      text "inversions" (fun x -> istr (report x).inversions);
      text "inv rate" (fun x -> Printf.sprintf "%.4f" (report x).inversion_rate);
      text "gamma viol" (fun x ->
          String.concat " "
            (List.map
               (fun (g : Fairness.gamma_row) ->
                 Printf.sprintf "%.1f:%d" g.gamma g.violations)
               (report x).gamma_rows));
      text "frontrun ok" (fun x ->
          match (report x).frontrun_success with
          | None -> "-"
          | Some s -> f2 s);
      json "fairness" Fairness.json report;
    ]
  in
  (* A row that scores an empty report silently degenerates the
     scorecard. *)
  let scored x =
    let r = res x in
    guard
      ((not !smoke)
      || Option.fold ~none:false r.fairness ~some:(fun (f : Fairness.report) ->
             f.decided > 0 && f.observers > 0))
      "%s %s scored no fairness report (no decided keys or no receive logs)"
      r.protocol (fst x)
  in
  exp "fairness" run
    [
      table
        (Printf.sprintf
           "FAIRNESS  receive-order fairness per protocol and scenario (n=%d; \
            inversion rate: timestamp-ordered protocols should dominate)"
           n)
        cols;
    ]
    ~json:[ J.field "n" J.int (fun _ -> n); rows "rows" cols Fun.id ]
    ~guards:(List.map scored)

(* ------------------------------------------------------------------ *)
(* WORKLOAD — the open-loop workload engine (docs/WORKLOAD.md).        *)
(* ------------------------------------------------------------------ *)

type workload = { sc : Selfbench.selfcheck; wn : int; results : Scenario.result list }

let workload =
  let run () =
    let sc = Selfbench.workload_selfcheck () in
    (* Part 2: the protocol scorecard. A flash-crowd KV stream (hot-key
       Zipf skew) plus an AMM user stream raced by seeded searchers run
       through every protocol; the committed order is replayed to price
       the searchers' extraction. Fair ordering should crush it. *)
    let scale = if !smoke then 1.0 else 4.0 in
    let wl_spec =
      Workload.Engine.spec ~market:Workload.Engine.default_market
        ~searcher:(searchers 3)
        [
          {
            Workload.Engine.name = "kv-flash";
            clients = 200_000;
            rate_per_client = 0.0004 *. scale;
            shape =
              Workload.Engine.Flash_crowd
                {
                  at_us = 1_000_000;
                  ramp_us = 300_000;
                  peak = 5.0;
                  decay_us = 500_000;
                };
            mix = Workload.Engine.Kv { keys = 1_000; zipf = 1.1 };
          };
          amm_users scale;
        ]
    in
    let extra = function "lyra" -> 0 | _ -> 3_000_000 in
    let n = small_n 7 in
    let results =
      List.map
        (fun (name, p) ->
          scenario p ~n ~load:(Scenario.Closed 0) ~workload:wl_spec
            ~duration_us:(window name (3_000_000 + extra name))
            ())
        (Protocol.Registry.all ())
    in
    { sc; wn = n; results }
  in
  let st ((_, s) : string * Workload.Engine.stream_summary) = s in
  let stream_cols =
    [
      both "protocol" "protocol" J.str Fun.id fst;
      both "stream" "stream" J.str Fun.id (fun x -> (st x).s_name);
      both "clients" "clients" J.int istr (fun x -> (st x).s_clients);
      both "submitted" "submitted" J.int istr (fun x -> (st x).s_submitted);
      both "committed" "committed" J.int istr (fun x -> (st x).s_committed);
      both "lat_p50_ms" "p50 ms" nnum f0 (fun x -> (st x).s_lat_p50_us /. 1000.);
      both "lat_p99_ms" "p99 ms" nnum f0 (fun x -> (st x).s_lat_p99_us /. 1000.);
      json "streaming" J.bool (fun x -> (st x).s_streaming);
    ]
  in
  let streams w =
    List.concat_map
      (fun (r : Scenario.result) ->
        List.map (fun s -> (r.protocol, s)) r.workload_streams)
      w.results
  in
  let m ((_, m) : string * Workload.Engine.mev) = m in
  let mev_cols =
    [
      both "protocol" "protocol" J.str Fun.id fst;
      both "user_swaps" "user swaps" J.int istr (fun x -> (m x).user_swaps);
      both "searcher_swaps" "searcher swaps" J.int istr (fun x ->
          (m x).searcher_swaps);
      both "extracted_value_y" "extracted Y" nnum f0 (fun x ->
          (m x).extracted_value_y);
      both "victim_slippage_y" "victim slippage Y" J.int istr (fun x ->
          (m x).victim_slippage_y);
      json "final_price_x_micro" J.int (fun x -> (m x).final_price_x_micro);
    ]
  in
  let mevs w =
    List.filter_map
      (fun (r : Scenario.result) -> Option.map (fun m -> (r.protocol, m)) r.mev)
      w.results
  in
  (* every stream must land transactions even at smoke scale — a silent
     0 here means the workload never reached consensus *)
  let stream_guard (protocol, (s : Workload.Engine.stream_summary)) =
    guard
      ((not !smoke) || s.s_committed > 0)
      "workload --smoke: %s stream %s committed 0 of %d submitted" protocol
      s.s_name s.s_submitted
  in
  exp "workload" run
    [
      (fun w ->
        table
          "WORKLOAD  scale self-check (open-loop engine vs echo sink; \
           streaming recorder must engage)"
          Selfbench.selfcheck_cols [ w.sc ]);
      (fun w ->
        table
          (Printf.sprintf
             "WORKLOAD  flash-crowd + hot-key + AMM flows, per protocol (n=%d)"
             w.wn)
          stream_cols (streams w));
      (fun w ->
        table
          "WORKLOAD/MEV  searcher extraction from the committed order \
           (replayed; fair ordering should crush it)"
          mev_cols (mevs w));
    ]
    ~json:
      [
        J.field "selfcheck" (row_desc Selfbench.selfcheck_cols) (fun w -> w.sc);
        rows "rows" stream_cols streams;
        rows "mev" mev_cols mevs;
      ]
    ~guards:(fun w ->
      Selfbench.selfcheck_guards w.sc @ List.map stream_guard (streams w))

(* ------------------------------------------------------------------ *)
(* CENSOR — Byzantine-leader censorship (§V-E).                        *)
(* ------------------------------------------------------------------ *)

let censor =
  let m ((_, _, m) : string * string * Attacks.Censorship.measurement) = m in
  exp "censor"
    (fun () -> Attacks.Censorship.run ~n:(small_n 7) ())
    [
      (fun (o : Attacks.Censorship.outcome) ->
        table
          (Printf.sprintf
             "CENSOR  victim-tx latency and reordering under censorship (n=%d)"
             o.n)
          [
            text "setting" (fun (protocol, label, _) -> protocol ^ " " ^ label);
            text "mean ms" (fun x -> f0 (m x).mean_ms);
            text "worst ms" (fun x -> f0 (m x).worst_ms);
            text "reordered" (fun x -> istr (m x).reordered);
          ]
          o.rows);
    ]
    (* Up to f censors (or Byzantine replicas) must not stop the victim
       committing; only the (n-1)-censor rows may starve it. *)
    ~guards:(fun (o : Attacks.Censorship.outcome) ->
      List.map
        (fun (protocol, label, m) ->
          guard
            (Scanf.sscanf label "%d" (fun k -> k > o.byzantine)
            || Float.is_finite m.Attacks.Censorship.mean_ms)
            "%s %s never committed the victim" protocol label)
        o.rows)

(* ------------------------------------------------------------------ *)
(* FAULTS — every protocol × every Sim.Faults plan under the invariant *)
(* monitor (docs/FAULTS.md). Fault times are placed relative to each   *)
(* protocol's warm-up and window, so the matrix also runs at smoke     *)
(* scale.                                                              *)
(* ------------------------------------------------------------------ *)

let faults =
  let n = 4 in
  let sydney = Sim.Faults.island_of_regions ~n [ Sim.Regions.Sydney ] in
  let plans ~warmup_us ~duration_us =
    let at frac = warmup_us + int_of_float (frac *. float_of_int duration_us) in
    let crash p =
      Sim.Faults.crash ~node:1 ~at_us:(at 0.2) ~recover_us:(at 0.45) p
    in
    let loss p =
      Sim.Faults.loss ~dup_p:0.005 ~from_us:(at 0.1) ~until_us:(at 0.5)
        ~drop_p:0.01 p
    in
    let partition p =
      Sim.Faults.partition ~from_us:(at 0.55) ~heal_us:(at 0.7) ~island:sydney
        p
    in
    let skew p = Sim.Faults.skew ~node:3 ~skew_us:2_000 p in
    let none = Sim.Faults.none in
    [
      ("crash+recover", crash none);
      ("loss 1%", loss none);
      ("partition+heal", partition none);
      ("clock skew", skew none);
      ("combined", none |> loss |> crash |> partition |> skew);
    ]
  in
  let run () =
    List.concat_map
      (fun name ->
        let ((module P : Protocol.NODE) as p) =
          Option.get (Protocol.Registry.get name)
        in
        let duration_us =
          window name (if String.equal name "pompe" then 8_000_000 else 4_000_000)
        in
        List.map
          (fun (plan_name, plan) ->
            ( name ^ " " ^ plan_name,
              scenario ~faults:plan p ~n ~load:(Scenario.Closed 2)
                ~duration_us () ))
          (plans ~warmup_us:P.default_warmup_us ~duration_us))
      Protocol.Registry.names
  in
  exp "faults" run
    [
      table
        (Printf.sprintf
           "FAULTS  crash/loss/partition/skew matrix under the invariant \
            monitor (n=%d; violations must be none)"
           n)
        [
          text "protocol / plan" fst;
          c_tps;
          text "dropped" (fun x -> istr (res x).dropped_msgs);
          text "dup" (fun x -> istr (res x).dup_msgs);
          text "stalls" (fun x -> istr (List.length (res x).stall_windows));
          text "violation" (fun x ->
              match (res x).first_violation with
              | None -> "none"
              | Some v -> v.Harness.Invariant_monitor.v_kind);
        ];
    ]

(* ------------------------------------------------------------------ *)
(* ATTACK — per protocol, the minimal adversary budget (owned victim   *)
(* links / route inflation / pre-GST delay) before an oracle trips;    *)
(* campaigns from Explore.Attack (docs/FAULTS.md).                     *)
(* ------------------------------------------------------------------ *)

let attack =
  let n = 4 in
  let seed = 7L in
  let run () =
    let placements = if !smoke then 1 else 3 in
    (placements, Explore.Attack.scorecard ~seed ~n ~placements ())
  in
  let opt_i = function None -> "-" | Some b -> istr b in
  let opt_s = function None -> "-" | Some s -> s in
  let row (r : Explore.Attack.row) = r in
  let cols =
    [
      both "protocol" "protocol" J.str Fun.id (fun r -> (row r).protocol);
      both "attack" "attack" J.str Fun.id (fun r -> (row r).attack);
      both "budget_unit" "budget unit" J.str Fun.id (fun r -> (row r).budget_unit);
      both "max_budget" "max" J.int istr (fun r -> (row r).max_budget);
      both "minimal_budget" "minimal" (J.option J.int) opt_i (fun r ->
          (row r).minimal_budget);
      both "tripped" "tripped" (J.option J.str) opt_s (fun r -> (row r).tripped);
      both "ceiling_tripped" "at ceiling" (J.option J.str) opt_s (fun r ->
          (row r).ceiling_tripped);
      both "runs" "runs" J.int istr (fun r -> (row r).runs);
    ]
  in
  (* The scorecard's headline claims are regressions, not observations:
     full isolation must starve the victim everywhere, and f+1
     netgroup-diverse links must deny Lyra any eclipse window. *)
  let guards (_, rows) =
    let f = (n - 1) / 3 in
    let eclipse protocol diversity =
      let attack = Explore.Attack.kind_label (Eclipse { diversity }) in
      List.find_opt
        (fun r -> String.equal (row r).protocol protocol && String.equal r.attack attack)
        rows
    in
    guard
      (match eclipse "lyra" (f + 1) with
      | Some r -> Option.is_none r.minimal_budget
      | None -> false)
      "%d diverse links should deny lyra's eclipse window" (f + 1)
    :: List.map
         (fun protocol ->
           let r = eclipse protocol 0 in
           guard
             (match r with
             | Some r ->
                 Option.is_some r.minimal_budget
                 && Option.equal String.equal r.ceiling_tripped
                      (Some "victim-liveness")
             | None -> false)
             "%s under full isolation tripped %s, expected victim-liveness \
              within the budget"
             protocol
             (match r with Some r -> opt_s r.ceiling_tripped | None -> "no row"))
         Explore.Attack.default_protocols
  in
  exp "attack" run
    [
      (fun (placements, rows) ->
        table
          (Printf.sprintf
             "ATTACK  minimal adversary budget before an oracle trips (n=%d, \
              %d placement%s; '-' = no window up to the ceiling)"
             n placements
             (if placements = 1 then "" else "s"))
          cols rows);
    ]
    ~json:
      [
        J.field "n" J.int (fun _ -> n);
        J.field "seed" J.int (fun _ -> Int64.to_int seed);
        J.field "placements" J.int fst;
        rows "rows" cols snd;
      ]
    ~guards

(* ------------------------------------------------------------------ *)

let all =
  [
    fig1; fig2; fig3; rounds; lambda; batch; byz; mev; fairness; workload;
    censor; faults; attack; ablate; Selfbench.simspeed; Selfbench.micro;
  ]

let () = main all
