(* Command-line driver for the Lyra reproduction: run a cluster of any
   registered protocol by hand (plain, profiled, under faults, with the
   workload engine, or scored for fairness). The paper's experiments
   and attacks live in the bench (`bench/main.exe`). `lyra_cli --help`. *)

open Cmdliner

let seed_t =
  let doc = "Simulation seed (runs are deterministic per seed)." in
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc)

let n_t default =
  let doc = "Number of processes (n > 3f)." in
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc)

let duration_t =
  let doc = "Measured simulated duration in seconds." in
  Arg.(value & opt float 3.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)

let clients_t =
  let doc = "Closed-loop clients per node." in
  Arg.(value & opt int 2 & info [ "clients" ] ~docv:"K" ~doc)

let rate_t =
  let doc = "Open-loop offered load per node (tx/s); overrides --clients." in
  Arg.(value & opt (some float) None & info [ "rate" ] ~docv:"TPS" ~doc)

(* Protocol choice comes from the baseline registry, so a newly
   registered adapter is selectable here with no CLI change. *)
let protocol_t =
  let doc =
    Printf.sprintf "Protocol to run: %s."
      (String.concat ", " Protocol.Registry.names)
  in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) Protocol.Registry.names)) "lyra"
    & info [ "protocol"; "p" ] ~docv:"PROTO" ~doc)

let adapter name =
  match Protocol.Registry.get name with
  | Some p -> p
  | None -> failwith ("unknown protocol " ^ name)

let print_result (r : Harness.Scenario.result) =
  Format.printf "%a@." Harness.Scenario.pp_result r;
  Format.printf
    "  decide rounds (mean): %.3f   accept rate: %.3f   messages: %d   MB: %.1f@."
    r.decide_rounds r.accept_rate r.messages
    (float_of_int r.bytes /. 1e6);
  if not r.prefix_safe then (
    Format.printf "  !! SMR prefix safety violated@.";
    exit 1)

let run_cmd =
  let run seed n duration clients rate protocol =
    let load =
      match rate with
      | Some r -> Harness.Scenario.Open_rate r
      | None -> Harness.Scenario.Closed clients
    in
    let duration_us = int_of_float (duration *. 1e6) in
    print_result
      (Harness.Scenario.run ~seed (adapter protocol) ~n ~load ~duration_us ())
  in
  let doc = "Run a geo-distributed cluster and report latency/throughput." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ seed_t $ n_t 16 $ duration_t $ clients_t $ rate_t $ protocol_t)

(* ------------------------------------------------------------------ *)
(* profile: the same run with the simulator profiler attached — phase  *)
(* breakdown, event-kind counts, per-node CPU/NIC utilization and      *)
(* queue-backlog percentiles.                                          *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let run seed n duration clients rate protocol bucket_ms =
    let load =
      match rate with
      | Some r -> Harness.Scenario.Open_rate r
      | None -> Harness.Scenario.Closed clients
    in
    let duration_us = int_of_float (duration *. 1e6) in
    let ((module P : Protocol.NODE) as p) = adapter protocol in
    let r =
      Harness.Scenario.run ~seed ~profile_bucket_us:(bucket_ms * 1000) p ~n
        ~load ~duration_us ()
    in
    print_result r;
    Format.printf "@.phase breakdown (own batches of honest nodes, ms):@.%s@."
      (Harness.Scenario.phase_table r);
    match r.profile with
    | Some prof ->
        (* Busy time accumulates from t = 0, so utilization is over the
           whole simulated span including warm-up. *)
        print_string
          (Sim.Profile.report prof ~over_us:(P.default_warmup_us + duration_us))
    | None -> ()
  in
  let bucket_t =
    Arg.(
      value & opt int 100
      & info [ "bucket" ] ~docv:"MS"
          ~doc:"Profiler sampling bucket in milliseconds.")
  in
  let doc =
    "Run a cluster with the simulator profiler attached: per-phase latency \
     breakdown, engine event-kind counts, per-node CPU/NIC utilization and \
     queue-backlog percentiles."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ seed_t $ n_t 16 $ duration_t $ clients_t $ rate_t
      $ protocol_t $ bucket_t)

(* ------------------------------------------------------------------ *)
(* faults: run any registered protocol under a declarative fault plan  *)
(* with the continuous invariant monitor armed.                        *)
(* ------------------------------------------------------------------ *)

let split_colons s = String.split_on_char ':' s

let us_of_sec_str field s =
  match float_of_string_opt s with
  | Some sec -> int_of_float (sec *. 1e6)
  | None -> failwith (Printf.sprintf "%s: not a number: %s" field s)

let int_of_str field s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> failwith (Printf.sprintf "%s: not an integer: %s" field s)

let float_of_str field s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> failwith (Printf.sprintf "%s: not a number: %s" field s)

let add_crash plan spec =
  match split_colons spec with
  | [ node; at ] ->
      Sim.Faults.crash ~node:(int_of_str "crash node" node)
        ~at_us:(us_of_sec_str "crash at" at) plan
  | [ node; at; recover ] ->
      Sim.Faults.crash ~node:(int_of_str "crash node" node)
        ~at_us:(us_of_sec_str "crash at" at)
        ~recover_us:(us_of_sec_str "crash recover" recover)
        plan
  | _ -> failwith ("--crash expects NODE:AT[:RECOVER], got " ^ spec)

let add_loss plan spec =
  match split_colons spec with
  | [ from_s; until_s; drop ] ->
      Sim.Faults.loss ~from_us:(us_of_sec_str "loss from" from_s)
        ~until_us:(us_of_sec_str "loss until" until_s)
        ~drop_p:(float_of_str "loss drop_p" drop)
        plan
  | [ from_s; until_s; drop; dup ] ->
      Sim.Faults.loss ~from_us:(us_of_sec_str "loss from" from_s)
        ~until_us:(us_of_sec_str "loss until" until_s)
        ~drop_p:(float_of_str "loss drop_p" drop)
        ~dup_p:(float_of_str "loss dup_p" dup)
        plan
  | _ -> failwith ("--loss expects FROM:UNTIL:DROP_P[:DUP_P], got " ^ spec)

let add_partition plan spec =
  match split_colons spec with
  | [ from_s; heal_s; island ] ->
      let ids =
        List.map (int_of_str "partition island")
          (String.split_on_char ',' island)
      in
      Sim.Faults.partition ~from_us:(us_of_sec_str "partition from" from_s)
        ~heal_us:(us_of_sec_str "partition heal" heal_s)
        ~island:ids plan
  | _ -> failwith ("--partition expects FROM:HEAL:ID,ID,..., got " ^ spec)

let add_skew plan spec =
  match split_colons spec with
  | [ node; us ] ->
      Sim.Faults.skew ~node:(int_of_str "skew node" node)
        ~skew_us:(int_of_str "skew us" us) plan
  | _ -> failwith ("--skew expects NODE:MICROSECONDS, got " ^ spec)

let faults_cmd =
  let run seed n duration clients protocol crashes losses partitions skews =
    let plan =
      Sim.Faults.none
      |> fun p ->
      List.fold_left add_crash p crashes |> fun p ->
      List.fold_left add_loss p losses |> fun p ->
      List.fold_left add_partition p partitions |> fun p ->
      List.fold_left add_skew p skews
    in
    Sim.Faults.validate plan ~n;
    let duration_us = int_of_float (duration *. 1e6) in
    let r =
      Harness.Scenario.run ~seed (adapter protocol) ~n
        ~load:(Harness.Scenario.Closed clients) ~faults:plan ~duration_us ()
    in
    print_result r;
    match r.first_violation with
    | None -> ()
    | Some v ->
        Format.printf "  !! invariant violated: %a@."
          Harness.Invariant_monitor.pp_violation v;
        exit 1
  in
  let repeatable name docv doc =
    Arg.(value & opt_all string [] & info [ name ] ~docv ~doc)
  in
  let crash_t =
    repeatable "crash" "NODE:AT[:RECOVER]"
      "Crash $(docv) at a time (seconds); omit RECOVER for fail-stop. \
       Repeatable."
  and loss_t =
    repeatable "loss" "FROM:UNTIL:DROP_P[:DUP_P]"
      "Lossy window (times in seconds, probabilities in [0,1]). Repeatable."
  and partition_t =
    repeatable "partition" "FROM:HEAL:ID,ID,..."
      "Partition the listed island from everyone else during \
       [FROM, HEAL) seconds. Repeatable."
  and skew_t =
    repeatable "skew" "NODE:US"
      "Offset a node's clock by a fixed skew in microseconds. Repeatable."
  in
  let doc =
    "Run a protocol under a fault plan (crash/recovery, lossy links, \
     partitions, clock skew) with the continuous invariant monitor; exits 1 \
     on any violation."
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      const run $ seed_t $ n_t 4 $ duration_t $ clients_t $ protocol_t
      $ crash_t $ loss_t $ partition_t $ skew_t)

(* ------------------------------------------------------------------ *)
(* workload: the open-loop engine (Workload.Engine) from the CLI —     *)
(* modelled-client populations, optional flash crowd and MEV searchers.*)
(* ------------------------------------------------------------------ *)

let workload_cmd =
  let run seed n duration protocol clients rate flash searchers =
    let shape =
      if flash then
        Workload.Engine.Flash_crowd
          { at_us = 1_000_000; ramp_us = 300_000; peak = 5.0; decay_us = 500_000 }
      else Workload.Engine.Constant
    in
    let streams =
      [
        {
          Workload.Engine.name = "kv";
          clients;
          rate_per_client = rate;
          shape;
          mix = Workload.Engine.Kv { keys = 1000; zipf = 1.1 };
        };
        {
          Workload.Engine.name = "amm";
          clients = max 1 (clients / 4);
          rate_per_client = rate *. 2.0;
          shape = Workload.Engine.Constant;
          mix = Workload.Engine.Amm_swaps { amount_min = 20_000; amount_max = 80_000 };
        };
      ]
    in
    let searcher =
      if searchers <= 0 then None
      else Some { Workload.Engine.default_searcher with searchers }
    in
    let wl =
      Workload.Engine.spec ~market:Workload.Engine.default_market ?searcher
        streams
    in
    let duration_us = int_of_float (duration *. 1e6) in
    let r =
      Harness.Scenario.run ~seed (adapter protocol) ~n
        ~load:(Harness.Scenario.Closed 0) ~workload:wl ~duration_us ()
    in
    print_result r;
    List.iter
      (fun (s : Workload.Engine.stream_summary) ->
        Format.printf
          "  stream %-4s clients=%d submitted=%d committed=%d p50=%.1fms \
           p99=%.1fms%s@."
          s.s_name s.s_clients s.s_submitted s.s_committed
          (s.s_lat_p50_us /. 1e3) (s.s_lat_p99_us /. 1e3)
          (if s.s_streaming then " (streaming)" else ""))
      r.workload_streams;
    match r.mev with
    | Some m ->
        Format.printf
          "  mev: user_swaps=%d searcher_swaps=%d extracted=%.0fY \
           slippage=%dY price=%d@."
          m.user_swaps m.searcher_swaps m.extracted_value_y
          m.victim_slippage_y m.final_price_x_micro
    | None -> ()
  in
  let pop_t =
    Arg.(
      value & opt int 200_000
      & info [ "population" ] ~docv:"K"
          ~doc:"Modelled clients on the KV stream (AMM stream gets K/4).")
  in
  let per_client_t =
    Arg.(
      value & opt float 0.0005
      & info [ "per-client-rate" ] ~docv:"TPS"
          ~doc:"Per-modelled-client submission rate in tx/s.")
  in
  let flash_t =
    Arg.(
      value & flag
      & info [ "flash" ]
          ~doc:"Overlay a flash crowd (5x ramp at t=1s) on the KV stream.")
  in
  let searchers_t =
    Arg.(
      value & opt int 3
      & info [ "searchers" ] ~docv:"S"
          ~doc:"MEV searcher agents racing user swaps; 0 disables the flow.")
  in
  let doc =
    "Drive a protocol with the open-loop workload engine: modelled-client \
     populations in O(1) state, optional flash crowd, Zipf hot keys, AMM \
     swaps and MEV searchers with the committed-order extraction report."
  in
  Cmd.v (Cmd.info "workload" ~doc)
    Term.(
      const run $ seed_t $ n_t 7 $ duration_t $ protocol_t $ pop_t
      $ per_client_t $ flash_t $ searchers_t)

(* ------------------------------------------------------------------ *)
(* fairness: score a run's receive-order fairness (docs/FAIRNESS.md) — *)
(* Kendall-tau inversion rate, γ-batch-order violations, per-sender    *)
(* positional advantage, and (with searchers) front-run success.       *)
(* ------------------------------------------------------------------ *)

let fairness_cmd =
  let run seed n duration clients protocol searchers =
    let duration_us = int_of_float (duration *. 1e6) in
    let workload =
      if searchers <= 0 then None
      else
        Some
          (Workload.Engine.spec ~market:Workload.Engine.default_market
             ~searcher:{ Workload.Engine.default_searcher with searchers }
             [
               {
                 Workload.Engine.name = "amm-users";
                 clients = 50_000;
                 rate_per_client = 0.0008;
                 shape = Workload.Engine.Constant;
                 mix =
                   Workload.Engine.Amm_swaps
                     { amount_min = 20_000; amount_max = 80_000 };
               };
             ])
    in
    let load =
      if Option.is_some workload then Harness.Scenario.Closed 0
      else Harness.Scenario.Closed clients
    in
    let r =
      Harness.Scenario.run ~seed ?workload (adapter protocol) ~n ~load
        ~duration_us ()
    in
    print_result r;
    match r.fairness with
    | None ->
        Format.printf "  no fairness report (nothing committed)@.";
        exit 1
    | Some f -> Format.printf "%a@." Fairness.pp f
  in
  let searchers_t =
    Arg.(
      value & opt int 0
      & info [ "searchers" ] ~docv:"S"
          ~doc:
            "Attach an AMM workload raced by $(docv) MEV searchers (reports \
             front-run success); 0 scores plain closed-loop load.")
  in
  let doc =
    "Run a protocol and score its receive-order fairness: Kendall-tau \
     inversion rate, gamma-batch-order violations, per-sender positional \
     advantage and searcher front-run success."
  in
  Cmd.v (Cmd.info "fairness" ~doc)
    Term.(
      const run $ seed_t $ n_t 4 $ duration_t $ clients_t $ protocol_t
      $ searchers_t)

let main =
  let doc = "Lyra: order-fair, MEV-resistant leaderless SMR (IPDPS'23 reproduction)" in
  Cmd.group (Cmd.info "lyra_cli" ~doc ~version:"1.0.0")
    [
      run_cmd;
      profile_cmd;
      workload_cmd;
      faults_cmd;
      fairness_cmd;
    ]

let () = exit (Cmd.eval main)
