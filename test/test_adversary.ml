(* Targeted network-adversary campaigns: eclipse + delay-inflation
   plan primitives, the pre-GST adversary threaded through the generic
   scenario driver, the per-victim attack oracles, reachability under
   eclipse and partition, and determinism of attacked runs. *)

(* ------------------------------------------------------------------ *)
(* Plan primitives: window edges, delay mode, inflation arithmetic,    *)
(* validation.                                                         *)
(* ------------------------------------------------------------------ *)

let fate =
  Alcotest.testable
    (fun fmt -> function
      | Sim.Faults.Link_up -> Format.fprintf fmt "up"
      | Sim.Faults.Link_cut -> Format.fprintf fmt "cut"
      | Sim.Faults.Link_delayed d -> Format.fprintf fmt "delayed(%d)" d)
    (fun a b ->
      match (a, b) with
      | Sim.Faults.Link_up, Sim.Faults.Link_up -> true
      | Sim.Faults.Link_cut, Sim.Faults.Link_cut -> true
      | Sim.Faults.Link_delayed x, Sim.Faults.Link_delayed y -> Int.equal x y
      | (Sim.Faults.Link_up | Sim.Faults.Link_cut | Sim.Faults.Link_delayed _), _
        ->
          false)

let test_eclipse_fate_windows () =
  let plan =
    Sim.Faults.(
      none
      |> eclipse ~victim:1 ~from_us:1_000 ~until_us:2_000 ~owned:[ 0; 3 ]
           ~diverse:[ 2 ])
  in
  let at now ~src ~dst = Sim.Faults.eclipse_fate plan ~now ~src ~dst in
  (* Owned links cut in both directions, half-open window. *)
  Alcotest.check fate "before window" Sim.Faults.Link_up (at 999 ~src:0 ~dst:1);
  Alcotest.check fate "at start" Sim.Faults.Link_cut (at 1_000 ~src:0 ~dst:1);
  Alcotest.check fate "reverse direction" Sim.Faults.Link_cut
    (at 1_500 ~src:1 ~dst:3);
  Alcotest.check fate "at end (exclusive)" Sim.Faults.Link_up
    (at 2_000 ~src:0 ~dst:1);
  (* Diverse and unrelated links untouched. *)
  Alcotest.check fate "diverse link up" Sim.Faults.Link_up (at 1_500 ~src:2 ~dst:1);
  Alcotest.check fate "third-party link up" Sim.Faults.Link_up
    (at 1_500 ~src:0 ~dst:3)

let test_eclipse_delay_mode () =
  let plan =
    Sim.Faults.(
      none
      |> eclipse ~victim:2 ~from_us:0 ~until_us:10_000 ~owned:[ 0 ]
           ~delay_us:5_000)
  in
  Alcotest.check fate "owned link delayed" (Sim.Faults.Link_delayed 5_000)
    (Sim.Faults.eclipse_fate plan ~now:100 ~src:0 ~dst:2);
  Alcotest.check fate "unowned link up" Sim.Faults.Link_up
    (Sim.Faults.eclipse_fate plan ~now:100 ~src:1 ~dst:2)

let test_inflation_sums () =
  let plan =
    Sim.Faults.(
      none
      |> delay_inflate ~from_us:0 ~until_us:1_000 ~a:[ 0 ] ~b:[ 1 ]
           ~extra_us:300
      |> delay_inflate ~from_us:500 ~until_us:1_500 ~a:[ 0 ] ~b:[ 1; 2 ]
           ~extra_us:400)
  in
  let infl now ~src ~dst = Sim.Faults.inflation_us plan ~now ~src ~dst in
  Alcotest.(check int) "one window" 300 (infl 100 ~src:0 ~dst:1);
  Alcotest.(check int) "overlap sums" 700 (infl 600 ~src:0 ~dst:1);
  Alcotest.(check int) "symmetric" 700 (infl 600 ~src:1 ~dst:0);
  Alcotest.(check int) "second window only" 400 (infl 1_200 ~src:2 ~dst:0);
  Alcotest.(check int) "outside windows" 0 (infl 1_600 ~src:0 ~dst:1);
  Alcotest.(check int) "unrelated pair" 0 (infl 600 ~src:1 ~dst:2)

let test_validate_rejects () =
  let rejects name plan =
    match Sim.Faults.validate plan ~n:4 with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  rejects "victim owns itself"
    Sim.Faults.(
      none |> eclipse ~victim:1 ~from_us:0 ~until_us:10 ~owned:[ 1 ]);
  rejects "owned and diverse overlap"
    Sim.Faults.(
      none
      |> eclipse ~victim:1 ~from_us:0 ~until_us:10 ~owned:[ 0 ] ~diverse:[ 0 ]);
  rejects "inflation islands overlap"
    Sim.Faults.(
      none |> delay_inflate ~from_us:0 ~until_us:10 ~a:[ 0; 1 ] ~b:[ 1 ]
              ~extra_us:5);
  (* A well-formed attack plan passes. *)
  Sim.Faults.validate
    Sim.Faults.(
      none
      |> eclipse ~victim:1 ~from_us:0 ~until_us:10 ~owned:[ 0 ] ~diverse:[ 2 ]
      |> delay_inflate ~from_us:0 ~until_us:10 ~a:[ 0 ] ~b:[ 3 ] ~extra_us:5)
    ~n:4;
  Alcotest.(check (list int))
    "eclipse_victims"
    [ 1; 2 ]
    (Sim.Faults.eclipse_victims
       Sim.Faults.(
         none
         |> eclipse ~victim:2 ~from_us:0 ~until_us:10 ~owned:[ 0 ]
         |> eclipse ~victim:1 ~from_us:0 ~until_us:10 ~owned:[ 3 ]
         |> eclipse ~victim:2 ~from_us:20 ~until_us:30 ~owned:[ 1 ]))

(* ------------------------------------------------------------------ *)
(* Transport cuts on a real network: a fully eclipsed victim hears no  *)
(* broadcast, one non-eclipsed diverse link keeps it reachable, and a  *)
(* partition starves the islanded node.                                *)
(* ------------------------------------------------------------------ *)

let counting_net ?faults ~n ~received () =
  let engine = Sim.Engine.create ~seed:3L () in
  let net =
    Sim.Network.create engine ~n
      ~latency:(Sim.Latency.constant 500)
      ?faults
      ~cost:(fun ~dst:_ _ -> 1)
      ~size:(fun _ -> 100)
      ()
  in
  for id = 0 to n - 1 do
    Sim.Network.register net ~id (fun ~src:_ _ ->
        received.(id) <- received.(id) + 1)
  done;
  (engine, net)

let test_full_eclipse_starves () =
  let n = 6 in
  let victim = 3 in
  let owned = List.filter (fun i -> not (Int.equal i victim)) (List.init n Fun.id) in
  let faults =
    Sim.Faults.(
      none |> eclipse ~victim ~from_us:0 ~until_us:10_000_000 ~owned)
  in
  let received = Array.make n 0 in
  let engine, net = counting_net ~faults ~n ~received () in
  Sim.Network.broadcast net ~src:0 42;
  Sim.Engine.run_until_idle ~limit:100_000 engine;
  Alcotest.(check int) "victim starved" 0 received.(victim);
  Alcotest.(check bool) "origin self-delivers" true (received.(0) > 0);
  Alcotest.(check bool)
    "eclipsed counted as dropped" true
    (Sim.Network.messages_eclipsed net > 0
    && Sim.Network.messages_dropped net >= Sim.Network.messages_eclipsed net)

let test_diverse_link_reaches () =
  let n = 6 in
  let victim = 3 in
  let peer = (victim + n - 1) mod n in
  let owned =
    List.filter
      (fun i -> not (Int.equal i victim) && not (Int.equal i peer))
      (List.init n Fun.id)
  in
  let faults =
    Sim.Faults.(
      none
      |> eclipse ~victim ~from_us:0 ~until_us:10_000_000 ~owned
           ~diverse:[ peer ])
  in
  let received = Array.make n 0 in
  let engine, net = counting_net ~faults ~n ~received () in
  (* Every node broadcasts once: the victim hears itself and the
     diverse peer, nobody else. *)
  for src = 0 to n - 1 do
    Sim.Network.broadcast net ~src 42
  done;
  Sim.Engine.run_until_idle ~limit:100_000 engine;
  Alcotest.(check int) "victim reached via the diverse link only" 2
    received.(victim);
  Alcotest.(check int) "the diverse peer hears everyone" n received.(peer)

let test_partition_starves_island () =
  let n = 4 in
  let received = Array.make n 0 in
  let faults =
    Sim.Faults.(none |> partition ~from_us:0 ~heal_us:10_000_000 ~island:[ 2 ])
  in
  let engine, net = counting_net ~faults ~n ~received () in
  Sim.Network.broadcast net ~src:0 7;
  Sim.Engine.run_until_idle ~limit:100_000 engine;
  Alcotest.(check (array int)) "islanded node starved" [| 1; 1; 0; 1 |]
    received;
  Alcotest.(check int) "the cut link counted as dropped" 1
    (Sim.Network.messages_dropped net)

(* ------------------------------------------------------------------ *)
(* Per-victim oracles on real runs.                                    *)
(* ------------------------------------------------------------------ *)

let oracle_names r ~victims =
  List.map
    (fun (f : Harness.Oracle.finding) -> f.oracle)
    (List.filter_map
       (fun oracle -> oracle r)
       (Harness.Oracle.attack_suite ~victims))

let test_eclipsed_lyra_trips_victim_oracles () =
  (* Eclipsed for the whole run: none of the victim's submissions can
     ever commit (censorship) and its log freezes while the other
     three keep going (victim liveness). *)
  let victim = 1 in
  let faults =
    Sim.Faults.(
      none
      |> eclipse ~victim ~from_us:0 ~until_us:4_100_000 ~owned:[ 0; 2; 3 ])
  in
  let r = Testutil.run_scenario ~seed:7L ~faults ~duration_us:2_500_000 "lyra" in
  Alcotest.(check (list string))
    "victim oracles fire" [ "victim-liveness"; "censorship-exposure" ]
    (oracle_names r ~victims:[ victim ]);
  (* The rest of the cluster keeps its safety suite clean. *)
  List.iter
    (fun (f : Harness.Oracle.finding) ->
      Alcotest.failf "unexpected safety finding: %s (%s)" f.oracle f.detail)
    (List.filter_map (fun o -> o r) Harness.Oracle.safety_suite)

let test_victim_oracles_clean_when_benign () =
  (* Fault-free: nothing fires on an arbitrary "victim". *)
  let r = Testutil.run_scenario ~seed:7L ~duration_us:1_500_000 "lyra" in
  Alcotest.(check (list string))
    "fault-free run clean" [] (oracle_names r ~victims:[ 1 ]);
  (* A benign healed partition recovers before the end of the run: the
     islanded node's log catches back up and its submissions commit,
     so neither victim oracle blames the partition. *)
  let faults =
    Sim.Faults.(
      none |> partition ~from_us:1_700_000 ~heal_us:2_100_000 ~island:[ 1 ])
  in
  let r =
    Testutil.run_scenario ~seed:7L ~faults ~duration_us:2_500_000 "lyra"
  in
  Alcotest.(check (list string))
    "healed partition clean" [] (oracle_names r ~victims:[ 1 ])

(* ------------------------------------------------------------------ *)
(* Determinism: a run under the full attack vocabulary — eclipse +     *)
(* delay inflation + pre-GST adversary — is bit-identical in the seed. *)
(* ------------------------------------------------------------------ *)

let attacked_run ?(seed = 21L) protocol =
  let duration_us =
    if String.equal protocol "pompe" then 8_000_000 else 2_500_000
  in
  let faults =
    Sim.Faults.(
      none
      |> eclipse ~victim:2 ~from_us:600_000 ~until_us:1_200_000 ~owned:[ 0 ]
           ~diverse:[ 1 ] ~delay_us:10_000
      |> delay_inflate ~from_us:400_000 ~until_us:1_000_000 ~a:[ 0; 1 ]
           ~b:[ 3 ] ~extra_us:20_000)
  in
  let adversary = Sim.Adversary.Pre_gst { gst = 500_000; max_extra = 50_000 } in
  Testutil.run_scenario ~seed ~faults ~adversary ~duration_us protocol

let test_attacked_determinism protocol () =
  let a = attacked_run protocol in
  let b = attacked_run protocol in
  let tag s = protocol ^ " " ^ s in
  Alcotest.(check bool) (tag "commits something") true (a.committed_txs > 0);
  Alcotest.(check int) (tag "committed") a.committed_txs b.committed_txs;
  Alcotest.(check int) (tag "messages") a.messages b.messages;
  Alcotest.(check int) (tag "bytes") a.bytes b.bytes;
  Alcotest.(check int) (tag "dropped") a.dropped_msgs b.dropped_msgs;
  Alcotest.(check (array int))
    (tag "last commit times") a.last_commit_us b.last_commit_us;
  Alcotest.(check (array int)) (tag "submitted") a.submitted_by b.submitted_by;
  Alcotest.(check (array int))
    (tag "committed own") a.committed_own b.committed_own;
  Alcotest.(check (array (float 1e-12)))
    (tag "latency samples")
    (Metrics.Recorder.to_array a.latency_ms)
    (Metrics.Recorder.to_array b.latency_ms)

(* The attacker-window search is itself deterministic: same seed, same
   scorecard (budget probes and all). *)
let test_scorecard_deterministic () =
  let run () =
    Explore.Attack.scorecard ~seed:7L ~n:4 ~placements:1
      ~protocols:[ "hotstuff" ] ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same row count" (List.length a) (List.length b);
  List.iter2
    (fun (x : Explore.Attack.row) (y : Explore.Attack.row) ->
      Alcotest.(check string) "attack" x.attack y.attack;
      Alcotest.(check (option int)) "minimal" x.minimal_budget y.minimal_budget;
      Alcotest.(check (option string)) "tripped" x.tripped y.tripped;
      Alcotest.(check (option string))
        "ceiling" x.ceiling_tripped y.ceiling_tripped;
      Alcotest.(check int) "runs" x.runs y.runs)
    a b;
  (* Full isolation must starve the hotstuff victim. *)
  let d0 =
    List.find
      (fun (r : Explore.Attack.row) ->
        String.equal r.attack
          (Explore.Attack.kind_label (Explore.Attack.Eclipse { diversity = 0 })))
      a
  in
  Alcotest.(check (option string))
    "full isolation trips victim liveness" (Some "victim-liveness")
    d0.ceiling_tripped

(* A Byzantine node named as an eclipse victim is not judged: node 0
   stays silent the whole run while the honest nodes commit, and only
   honest victims can be starved. *)
let test_byzantine_victim_not_judged () =
  let p = Option.get (Explore.Knobs.make ~protocol:"lyra" ~knob:"byz-silent") in
  let r =
    Harness.Scenario.run p ~n:4 ~load:(Harness.Scenario.Closed 2)
      ~duration_us:3_000_000 ()
  in
  Alcotest.(check bool) "honest nodes committed" true (r.committed_txs > 0);
  Alcotest.(check bool) "silent node 0 is not honest" false
    (Array.exists (Int.equal 0) r.honest_ids);
  Alcotest.(check (option string))
    "silent victim not judged" None
    (Option.map
       (fun (f : Harness.Oracle.finding) -> f.oracle)
       (Harness.Oracle.victim_liveness ~stall_gap_us:1 ~victims:[ 0 ] r))

let suite =
  [
    Alcotest.test_case "byzantine victim not judged" `Quick
      test_byzantine_victim_not_judged;
    Alcotest.test_case "eclipse fate windows" `Quick test_eclipse_fate_windows;
    Alcotest.test_case "eclipse delay mode" `Quick test_eclipse_delay_mode;
    Alcotest.test_case "inflation sums" `Quick test_inflation_sums;
    Alcotest.test_case "attack-plan validation" `Quick test_validate_rejects;
    Alcotest.test_case "eclipse: full eclipse starves" `Quick
      test_full_eclipse_starves;
    Alcotest.test_case "eclipse: diverse link reaches" `Quick
      test_diverse_link_reaches;
    Alcotest.test_case "partition: islanded node starved" `Quick
      test_partition_starves_island;
    Alcotest.test_case "eclipsed lyra trips victim oracles" `Quick
      test_eclipsed_lyra_trips_victim_oracles;
    Alcotest.test_case "victim oracles clean when benign" `Quick
      test_victim_oracles_clean_when_benign;
    Alcotest.test_case "attacked lyra deterministic" `Quick
      (test_attacked_determinism "lyra");
    Alcotest.test_case "attacked pompe deterministic" `Quick
      (test_attacked_determinism "pompe");
    Alcotest.test_case "attacked hotstuff deterministic" `Quick
      (test_attacked_determinism "hotstuff");
    Alcotest.test_case "attack scorecard deterministic" `Quick
      test_scorecard_deterministic;
  ]
