(* Fault-injection acceptance (the robustness tentpole): every
   registered protocol survives a seeded scenario combining a crash
   with recovery, a 1% loss window and a healed region partition — no
   invariant violation, nonzero drops, bit-identical results when the
   same seed is run twice. A node-level Lyra test exercises the
   crash-rejoin committed-log sync directly. *)

(* One plan per protocol, phased so every fault lands inside the
   measurement window (warm-ups differ) while the pipeline has traffic
   to lose, and heals with enough runway left to catch back up. *)
let plan_for name ~n =
  let sydney = Sim.Faults.island_of_regions ~n [ Sim.Regions.Sydney ] in
  match name with
  | "lyra" ->
      (* warm-up 1.5 s + 4 s: window [1.5 s, 5.5 s] *)
      Sim.Faults.(
        none
        |> loss ~from_us:1_800_000 ~until_us:2_800_000 ~drop_p:0.01
        |> crash ~node:1 ~at_us:2_000_000 ~recover_us:3_000_000
        |> partition ~from_us:3_600_000 ~heal_us:4_100_000 ~island:sydney)
  | "pompe" ->
      (* warm-up 0.5 s + 8 s: window [0.5 s, 8.5 s] *)
      Sim.Faults.(
        none
        |> loss ~from_us:1_000_000 ~until_us:2_000_000 ~drop_p:0.01
        |> crash ~node:3 ~at_us:1_500_000 ~recover_us:2_800_000
        |> partition ~from_us:4_000_000 ~heal_us:4_500_000 ~island:sydney
        |> skew ~node:3 ~skew_us:1_500)
  | "hotstuff" ->
      (* warm-up 0.5 s + 4 s: window [0.5 s, 4.5 s]. The fault
         sequence stalls the view pipeline until ~3.1 s (each crashed-
         leader view burns a 4Δ timeout), so leave runway to recover. *)
      Sim.Faults.(
        none
        |> loss ~from_us:800_000 ~until_us:1_400_000 ~drop_p:0.01
        |> crash ~node:1 ~at_us:1_000_000 ~recover_us:1_700_000
        |> partition ~from_us:2_000_000 ~heal_us:2_300_000 ~island:sydney)
  | "dag" ->
      (* warm-up 0.5 s + 4 s: window [0.5 s, 4.5 s]. Leaderless rounds
         stall while fewer than n−f replicas participate (the crash and
         the partition each sink below quorum at n=4); the pending
         buffer + fetch path must replay the missed waves after each
         heal. A skewed replica stresses the median receive reports. *)
      Sim.Faults.(
        none
        |> loss ~from_us:800_000 ~until_us:1_400_000 ~drop_p:0.01
        |> crash ~node:1 ~at_us:1_000_000 ~recover_us:1_700_000
        |> partition ~from_us:2_200_000 ~heal_us:2_500_000 ~island:sydney
        |> skew ~node:2 ~skew_us:2_500)
  | _ -> Alcotest.failf "no fault plan for %s" name

let duration_for = function
  | "lyra" -> 4_000_000
  | "pompe" -> 8_000_000
  | _ -> 4_000_000

let run ?seed protocol =
  Testutil.run_scenario ?seed protocol
    ~faults:(plan_for protocol ~n:4)
    ~duration_us:(duration_for protocol)

let check_healthy protocol (r : Harness.Scenario.result) =
  let tag s = protocol ^ " " ^ s in
  (match r.first_violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "%s: %a" (tag "invariant violated")
        Harness.Invariant_monitor.pp_violation v);
  Alcotest.(check bool) (tag "commits something") true (r.committed_txs > 0);
  Alcotest.(check bool) (tag "prefix safe") true r.prefix_safe;
  Alcotest.(check int) (tag "late accepts") 0 r.late_accepts;
  Alcotest.(check bool) (tag "plan dropped messages") true (r.dropped_msgs > 0)

(* The acceptance criterion proper: faulty runs finish clean and are
   deterministic down to the per-transaction latency samples. *)
let test_faulty_scenario protocol () =
  let a = run ~seed:21L protocol in
  let b = run ~seed:21L protocol in
  check_healthy protocol a;
  let tag s = protocol ^ " " ^ s in
  Alcotest.(check int) (tag "committed") a.committed_txs b.committed_txs;
  Alcotest.(check int) (tag "messages") a.messages b.messages;
  Alcotest.(check int) (tag "bytes") a.bytes b.bytes;
  Alcotest.(check int) (tag "dropped") a.dropped_msgs b.dropped_msgs;
  Alcotest.(check int) (tag "duplicated") a.dup_msgs b.dup_msgs;
  Alcotest.(check (list (pair int int)))
    (tag "stall windows") a.stall_windows b.stall_windows;
  Alcotest.(check (array (float 1e-12)))
    (tag "latency samples")
    (Metrics.Recorder.to_array a.latency_ms)
    (Metrics.Recorder.to_array b.latency_ms)

(* Different seeds must not produce the same trajectory (the loss
   window really is random, not a fixed pattern). *)
let test_seeds_diverge () =
  let a = run ~seed:21L "lyra" in
  let b = run ~seed:22L "lyra" in
  Alcotest.(check bool) "different seeds diverge" true
    (a.messages <> b.messages || a.dropped_msgs <> b.dropped_msgs)

(* ------------------------------------------------------------------ *)
(* Loss-window sampling: drop and duplication are independent draws,   *)
(* so over a long window each observed rate pins to its configured     *)
(* probability. A coupled implementation (dup gated on the drop not    *)
(* firing) would show an effective dup rate of dup_p·(1 − drop_p) —    *)
(* 0.12 here, far outside the tolerance around 0.15.                   *)
(* ------------------------------------------------------------------ *)

let test_drop_dup_rates_pinned () =
  let n_msgs = 20_000 in
  let drop_p = 0.2 and dup_p = 0.15 in
  let engine = Sim.Engine.create ~seed:5L () in
  let faults =
    Sim.Faults.(none |> loss ~from_us:0 ~until_us:1_000_000_000 ~drop_p ~dup_p)
  in
  let net =
    Sim.Network.create engine ~n:2 ~latency:(Sim.Latency.constant 500) ~faults
      ~cost:(fun ~dst:_ _ -> 1)
      ~size:(fun _ -> 100)
      ()
  in
  let delivered = ref 0 in
  Sim.Network.register net ~id:1 (fun ~src:_ _ -> incr delivered);
  for i = 1 to n_msgs do
    Sim.Network.send net ~src:0 ~dst:1 i
  done;
  Sim.Engine.run_until_idle ~limit:1_000_000 engine;
  let rate count = float_of_int count /. float_of_int n_msgs in
  let dropped = Sim.Network.messages_dropped net in
  let duped = Sim.Network.messages_duplicated net in
  Alcotest.(check (float 0.015)) "observed drop rate" drop_p (rate dropped);
  Alcotest.(check (float 0.015)) "observed dup rate" dup_p (rate duped);
  (* Every surviving copy arrives: original unless dropped, plus the
     duplicate when the dup draw fired (even for dropped originals). *)
  Alcotest.(check int) "delivered = sent - dropped + duped"
    (n_msgs - dropped + duped) !delivered

(* ------------------------------------------------------------------ *)
(* Lyra crash → recover → rejoin, at the node level: the recovered     *)
(* node must pull the commits it missed through the sync path and end  *)
(* with the full log.                                                  *)
(* ------------------------------------------------------------------ *)

let test_lyra_crash_rejoin () =
  let n = 4 in
  let engine = Sim.Engine.create ~seed:33L () in
  let cfg =
    { (Lyra.Config.default ~n) with batch_size = 5; batch_timeout_us = 20_000 }
  in
  let faults =
    Sim.Faults.(none |> crash ~node:2 ~at_us:2_000_000 ~recover_us:3_200_000)
  in
  let latency =
    Sim.Latency.regional ~jitter:0.01 (Sim.Regions.paper_placement n)
  in
  let net =
    Sim.Network.create engine ~n ~latency ~faults
      ~cost:(fun ~dst:_ m -> Lyra.Types.msg_cost Sim.Costs.default m)
      ~size:Lyra.Types.msg_size ()
  in
  let nodes = Array.init n (fun id -> Lyra.Node.create cfg net ~id ()) in
  Array.iter Lyra.Node.start nodes;
  Sim.Engine.run engine ~until:1_600_000 (* past warm-up *);
  (* Steady load straddling the whole crash window, so commits keep
     happening while node 2 is down. *)
  for k = 0 to 19 do
    Sim.Engine.schedule engine ~delay:(k * 150_000) (fun () ->
        Array.iter
          (fun nd ->
            ignore (Lyra.Node.submit nd ~payload:(String.make 32 'x') : string))
          nodes)
  done;
  Sim.Engine.run engine ~until:8_000_000;
  let logs =
    Array.map
      (fun nd ->
        List.map
          (fun (o : Lyra.Node.output) -> o.batch.iid)
          (Lyra.Node.output_log nd))
      nodes
  in
  Alcotest.(check bool) "cluster committed through the crash" true
    (List.length logs.(0) > 0);
  Array.iteri
    (fun i l ->
      Alcotest.(check int)
        (Printf.sprintf "node %d has the full log" i)
        (List.length logs.(0))
        (List.length l);
      Alcotest.(check bool) (Printf.sprintf "node %d log agrees" i) true
        (l = logs.(0)))
    logs;
  Alcotest.(check bool) "recovered node pulled missed entries" true
    (Lyra.Node.synced_entries nodes.(2) > 0);
  Alcotest.(check bool) "recovered node started a sync" true
    (Lyra.Node.syncs_started nodes.(2) > 0);
  Array.iter
    (fun nd ->
      Alcotest.(check int) "no late accepts" 0 (Lyra.Node.late_accepts nd))
    nodes

(* ------------------------------------------------------------------ *)
(* Compound faults. Each plan stacks two or three faults; times are    *)
(* fractions of the window after the warm-up, and loss is 1 % drop     *)
(* with 0.5 % duplication. "combined" is bench faults' combined plan.  *)
(* ------------------------------------------------------------------ *)

let compound_plans ~n =
  let warmup_us = 1_500_000 and duration_us = 4_000_000 in
  let at frac = warmup_us + int_of_float (frac *. float_of_int duration_us) in
  let sydney = Sim.Faults.island_of_regions ~n [ Sim.Regions.Sydney ] in
  let loss a b =
    Sim.Faults.loss ~dup_p:0.005 ~from_us:(at a) ~until_us:(at b) ~drop_p:0.01
  in
  let crash node a b = Sim.Faults.crash ~node ~at_us:(at a) ~recover_us:(at b) in
  let partition a b =
    Sim.Faults.partition ~from_us:(at a) ~heal_us:(at b) ~island:sydney
  in
  let skew = Sim.Faults.skew ~node:3 ~skew_us:2_000 in
  let none = Sim.Faults.none in
  [
    ( "combined",
      none |> loss 0.1 0.5 |> crash 1 0.2 0.45 |> partition 0.55 0.7 |> skew );
    ("loss+crash+skew", none |> loss 0.1 0.5 |> crash 1 0.2 0.45 |> skew);
    ("loss+crash", none |> loss 0.1 0.5 |> crash 1 0.2 0.45);
    ("loss+partition", none |> loss 0.1 0.6 |> partition 0.2 0.5);
    ("loss+2crash", none |> loss 0.0 0.9 |> crash 1 0.1 0.3 |> crash 2 0.5 0.7);
    ("crash+partition", none |> crash 1 0.2 0.45 |> partition 0.3 0.6);
  ]

let run_compound ~n ~seed plan =
  Testutil.run_scenario ~seed:(Int64.of_int seed) ~n "lyra"
    ~faults:(List.assoc plan (compound_plans ~n))
    ~duration_us:4_000_000

(* Lyra keeps prefix agreement under every compound plan: n = 4 over
   the first five plans, n = 7 and n = 10 over the two partition
   plans. Every run must be clean and commit something. *)
let test_compound_sweep () =
  let sweep ~n ~seeds plans =
    List.iter
      (fun plan ->
        for seed = 1 to seeds do
          let r = run_compound ~n ~seed plan in
          let tag s = Printf.sprintf "n=%d %s seed %d: %s" n plan seed s in
          (match r.first_violation with
          | None -> ()
          | Some v ->
              Alcotest.failf "%s %a" (tag "invariant violated")
                Harness.Invariant_monitor.pp_violation v);
          Alcotest.(check bool) (tag "prefix safe") true r.prefix_safe;
          Alcotest.(check int) (tag "late accepts") 0 r.late_accepts;
          Alcotest.(check bool) (tag "commits something") true
            (r.committed_txs > 0)
        done)
      plans
  in
  sweep ~n:4 ~seeds:60
    [ "combined"; "loss+crash+skew"; "loss+crash"; "loss+partition"; "loss+2crash" ];
  sweep ~n:7 ~seeds:30 [ "loss+partition"; "crash+partition" ];
  sweep ~n:10 ~seeds:20 [ "loss+partition"; "crash+partition" ]

(* The minimal repro of the recovery prefix break: node 1 recovers
   while its peers have taken, but not yet revealed, 0/6, decided
   during its outage. When statuses claimed emitted counts, node 1
   emitted 3/6 at position 16 where every other node has 0/6. The
   peers' log-length claims show node 1 that it is behind before it
   emits, so it pulls 0/6 through the sync. Logs end at different lengths
   (emission is not simultaneous), so each pair is compared over the
   positions both have emitted. *)
let test_recovery_repro_logs_agree () =
  let r = run_compound ~n:4 ~seed:1 "loss+crash+skew" in
  let logs = Array.map (List.map fst) r.honest_logs in
  Alcotest.(check bool) "node 1 is honest" true (Int.equal r.honest_ids.(1) 1);
  let rec common a b =
    match (a, b) with
    | x :: a, y :: b -> (x, y) :: common a b
    | _ -> []
  in
  let at16 = ref 0 in
  Array.iteri
    (fun i log ->
      if i <> 1 then begin
        let pairs = common logs.(1) log in
        if List.length pairs > 16 then incr at16;
        Alcotest.(check (list string))
          (Printf.sprintf "node 1's log = node %d's" r.honest_ids.(i))
          (List.map snd pairs) (List.map fst pairs)
      end)
    logs;
  Alcotest.(check bool) "position 16 compared with some peer" true (!at16 > 0)

(* The wire path reads the drop and duplicate probabilities through
   [drop_prob] / [dup_prob]; [drop_dup] below is the pair-returning
   fold they replaced, kept here as the reference. Random plans of
   overlapping windows, some filtered by sender or receiver, queried
   at random times and endpoints: both components must agree bit for
   bit, a zero included. *)
let drop_dup (plan : Sim.Faults.plan) ~now ~src ~dst =
  let matches filter id = match filter with None -> true | Some w -> w = id in
  List.fold_left
    (fun ((keep_d, keep_u) as acc) (w : Sim.Faults.loss_window) ->
      if
        now >= w.l_from_us && now < w.l_until_us
        && matches w.l_src src && matches w.l_dst dst
      then (keep_d *. (1.0 -. w.l_drop_p), keep_u *. (1.0 -. w.l_dup_p))
      else acc)
    (1.0, 1.0) plan.losses
  |> fun (keep_d, keep_u) -> (1.0 -. keep_d, 1.0 -. keep_u)

let prop_split_loss_probabilities =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"drop_prob/dup_prob = drop_dup" ~count:500
       QCheck.(pair (int_bound 1_000_000) (int_range 0 6))
       (fun (seed, windows) ->
         let rng = Crypto.Rng.create (Int64.of_int (seed + 1)) in
         let n = 5 in
         let endpoint () =
           if Crypto.Rng.int rng 3 = 0 then Some (Crypto.Rng.int rng n) else None
         in
         let plan = ref Sim.Faults.none in
         for _ = 1 to windows do
           let from_us = Crypto.Rng.int rng 1_000 in
           let until_us = from_us + 1 + Crypto.Rng.int rng 1_000 in
           plan :=
             Sim.Faults.loss ?src:(endpoint ()) ?dst:(endpoint ())
               ~dup_p:(Crypto.Rng.float rng) ~from_us ~until_us
               ~drop_p:(Crypto.Rng.float rng) !plan
         done;
         let plan = !plan in
         let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
         List.for_all
           (fun _ ->
             let now = Crypto.Rng.int rng 2_200 in
             let src = Crypto.Rng.int rng n and dst = Crypto.Rng.int rng n in
             let drop, dup = drop_dup plan ~now ~src ~dst in
             same drop (Sim.Faults.drop_prob plan ~now ~src ~dst)
             && same dup (Sim.Faults.dup_prob plan ~now ~src ~dst))
           (List.init 50 Fun.id)))

let suite =
  List.map
    (fun p ->
      Alcotest.test_case
        (p ^ " crash+loss+partition completes deterministically")
        `Slow (test_faulty_scenario p))
    Protocol.Registry.names
  @ [
      Alcotest.test_case "seeds diverge under faults" `Quick test_seeds_diverge;
      Alcotest.test_case "drop/dup rates pin to configuration" `Quick
        test_drop_dup_rates_pinned;
      prop_split_loss_probabilities;
      Alcotest.test_case "lyra crash rejoin via sync" `Slow
        test_lyra_crash_rejoin;
      Alcotest.test_case "lyra compound-fault sweep" `Slow test_compound_sweep;
      Alcotest.test_case "lyra recovery repro: logs agree" `Quick
        test_recovery_repro_logs_agree;
    ]
