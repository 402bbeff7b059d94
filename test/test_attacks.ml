(* The reordering-attack framework: front-running, sandwich extraction
   and censorship — Lyra must neutralize all of them. All three attacks
   run through the generic protocol adapters, so each test names its
   target protocol explicitly. *)

let test_frontrun_pompe_succeeds () =
  let o = Attacks.Frontrun.run ~trials:2 ~protocol:"pompe" () in
  Alcotest.(check int) "observed" 2 o.observed;
  Alcotest.(check int) "launched" 2 o.launched;
  Alcotest.(check int) "succeeded" 2 o.succeeded;
  Alcotest.(check bool) "attacker sequenced earlier" true (o.victim_first_gap_ms > 0.0)

let test_frontrun_lyra_blind () =
  let o = Attacks.Frontrun.run ~trials:2 ~protocol:"lyra" () in
  Alcotest.(check int) "nothing observed" 0 o.observed;
  Alcotest.(check int) "nothing launched" 0 o.launched;
  Alcotest.(check int) "nothing succeeded" 0 o.succeeded

let test_frontrun_hotstuff_observable () =
  (* Plain HotStuff gossips cleartext batches: the payload is readable
     in flight, so the attack launches every time. *)
  let o = Attacks.Frontrun.run ~trials:2 ~protocol:"hotstuff" () in
  Alcotest.(check int) "payload observed" 2 o.observed;
  Alcotest.(check int) "attack launched" 2 o.launched

let test_sandwich_pompe_extracts () =
  let o = Attacks.Sandwich.run ~trials:1 ~protocol:"pompe" () in
  Alcotest.(check int) "launched" 1 o.launched;
  Alcotest.(check bool) "profit" true (o.attacker_profit_x > 0.0);
  Alcotest.(check bool) "victim hurt" true (o.victim_out_mean < o.victim_out_baseline)

let test_sandwich_lyra_zero () =
  let o = Attacks.Sandwich.run ~trials:1 ~protocol:"lyra" () in
  Alcotest.(check int) "never launched" 0 o.launched;
  Alcotest.(check (float 1e-9)) "zero profit" 0.0 o.attacker_profit_x;
  Alcotest.(check (float 1e-9)) "victim whole" o.victim_out_baseline o.victim_out_mean

let test_triangle_violation_premise () =
  (* The attack premise from Fig. 1 must hold in the region model. *)
  Alcotest.(check bool) "premise" true
    Sim.Regions.(violates_triangle ~src:Tokyo ~via:Singapore ~dst:Sydney)

let test_censorship_reorders_only_pompe () =
  let o = Attacks.Censorship.run ~n:7 () in
  let reordered pred combine init =
    List.fold_left
      (fun acc (proto, _, (m : Attacks.Censorship.measurement)) ->
        if pred proto then combine acc m.reordered else acc)
      init o.rows
  in
  let pompe_max = reordered (String.equal "pompe") max 0 in
  let lyra_sum = reordered (String.equal "lyra") ( + ) 0 in
  Alcotest.(check bool) "pompe reorders under heavy censorship" true (pompe_max > 0);
  Alcotest.(check int) "lyra never" 0 lyra_sum;
  List.iter
    (fun proto ->
      Alcotest.(check bool)
        (proto ^ " measured") true
        (List.exists (fun (p, _, _) -> String.equal p proto) o.rows))
    Protocol.Registry.names

let suite =
  [
    Alcotest.test_case "frontrun pompe" `Slow test_frontrun_pompe_succeeds;
    Alcotest.test_case "frontrun lyra" `Slow test_frontrun_lyra_blind;
    Alcotest.test_case "frontrun hotstuff" `Slow test_frontrun_hotstuff_observable;
    Alcotest.test_case "sandwich pompe" `Slow test_sandwich_pompe_extracts;
    Alcotest.test_case "sandwich lyra" `Slow test_sandwich_lyra_zero;
    Alcotest.test_case "triangle premise" `Quick test_triangle_violation_premise;
    Alcotest.test_case "censorship reordering" `Slow test_censorship_reorders_only_pompe;
  ]
