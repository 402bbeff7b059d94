(* The schedule-space explorer: repro-artifact round-trips, the
   zero-cost guarantee of a disabled perturbation, oracle verdicts on
   healthy and deliberately broken protocols, the smoke sweep that
   runs under `dune runtest`, and the checked-in repro regression. *)

let findings_equal a b =
  List.equal
    (fun (x : Harness.Oracle.finding) (y : Harness.Oracle.finding) ->
      String.equal x.oracle y.oracle && String.equal x.detail y.detail)
    a b

let case_to_string c = Metrics.Json.to_string (Metrics.Json.value Explore.Case.desc c)

let oracle_names fs =
  List.map (fun (f : Harness.Oracle.finding) -> f.oracle) fs

(* ------------------------------------------------------------------ *)
(* Repro artifact (de)serialization.                                   *)
(* ------------------------------------------------------------------ *)

let rich_case =
  {
    (Explore.Case.make ~knob:"byz-silent" ~n:4 ~seed:99L
       ~duration_us:2_000_000 ~clients:3 "lyra")
    with
    Explore.Case.faults =
      Sim.Faults.(
        none
        |> loss ~from_us:1_600_000 ~until_us:1_900_000 ~drop_p:0.05
             ~dup_p:0.01 ~src:1
        |> partition ~from_us:2_000_000 ~heal_us:2_200_000 ~island:[ 2 ]
        |> crash ~node:3 ~at_us:2_400_000 ~recover_us:2_700_000
        |> skew ~node:1 ~skew_us:500
        |> eclipse ~victim:2 ~from_us:2_500_000 ~until_us:3_000_000
             ~owned:[ 0 ] ~diverse:[ 1 ] ~delay_us:40_000
        |> eclipse ~victim:0 ~from_us:2_600_000 ~until_us:2_900_000
             ~owned:[ 3 ]
        |> delay_inflate ~from_us:1_800_000 ~until_us:2_400_000 ~a:[ 0; 1 ]
             ~b:[ 2 ] ~extra_us:75_000);
    adversary =
      Some
        (Sim.Adversary.Targeted
           { gst = 1_600_000; max_extra = 90_000; victims = [ 2 ] });
    perturb =
      [
        Sim.Perturb.Delay_nth { nth = 41; extra_us = 250_000 };
        Sim.Perturb.Delay_window
          {
            from_us = 1_700_000;
            until_us = 1_800_000;
            src = Some 0;
            dst = None;
            extra_us = 120_000;
          };
        Sim.Perturb.Reverse_window
          {
            from_us = 2_000_000;
            until_us = 2_050_000;
            src = None;
            dst = Some 2;
          };
      ];
  }

let test_case_roundtrip () =
  let s = case_to_string rich_case in
  match Explore.Case.of_string s with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok c ->
      Alcotest.(check string) "identical serialization" s
        (case_to_string c);
      Alcotest.(check string) "protocol" "lyra" c.Explore.Case.protocol;
      Alcotest.(check int)
        "perturb ops" 3
        (List.length c.Explore.Case.perturb);
      Alcotest.(check bool) "faults survive" false
        (Sim.Faults.is_none c.Explore.Case.faults);
      Alcotest.(check int)
        "eclipses survive" 2
        (List.length c.Explore.Case.faults.Sim.Faults.eclipses);
      Alcotest.(check int)
        "inflations survive" 1
        (List.length c.Explore.Case.faults.Sim.Faults.inflations);
      Alcotest.(check (list int))
        "eclipse victims" [ 0; 2 ]
        (Sim.Faults.eclipse_victims c.Explore.Case.faults);
      (match c.Explore.Case.adversary with
      | Some (Sim.Adversary.Targeted { gst; max_extra; victims }) ->
          Alcotest.(check int) "adversary gst" 1_600_000 gst;
          Alcotest.(check int) "adversary max_extra" 90_000 max_extra;
          Alcotest.(check (list int)) "adversary victims" [ 2 ] victims
      | Some (Sim.Adversary.Pre_gst _) | None ->
          Alcotest.fail "targeted adversary lost in round-trip")

let test_case_rejects_garbage () =
  let reject label s =
    match Explore.Case.of_string s with
    | Ok _ -> Alcotest.failf "%s: accepted invalid artifact" label
    | Error _ -> ()
  in
  reject "not json" "][";
  reject "wrong version" "{ \"version\": 99 }";
  (* out-of-range perturbation endpoint must fail validation on load *)
  let bad =
    {
      rich_case with
      Explore.Case.perturb =
        [
          Sim.Perturb.Delay_window
            {
              from_us = 0;
              until_us = 1;
              src = Some 9;
              dst = None;
              extra_us = 1;
            };
        ];
    }
  in
  reject "src out of range" (case_to_string bad);
  (* attack fields go through the same validation on load *)
  let replace ~from ~into s =
    let fl = String.length from and sl = String.length s in
    let b = Buffer.create sl in
    let i = ref 0 in
    while !i < sl do
      if !i + fl <= sl && String.equal (String.sub s !i fl) from then begin
        Buffer.add_string b into;
        i := !i + fl
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  reject "unknown adversary kind"
    (replace ~from:"targeted" ~into:"martian"
       (case_to_string rich_case));
  (* owning a declared-diverse link must fail Faults.validate on load:
     victim 2's eclipse owns [0] and declares [1]; flip the diverse
     declaration onto the owned peer *)
  let owned_diverse =
    {
      rich_case with
      Explore.Case.faults =
        Sim.Faults.(
          none
          |> eclipse ~victim:2 ~from_us:0 ~until_us:10 ~owned:[ 0 ]
               ~diverse:[ 0 ]);
    }
  in
  reject "owned diverse link" (case_to_string owned_diverse);
  (* range and catalog checks on load: replaying any of these would be
     vacuous or would die inside the harness *)
  let base = case_to_string (Explore.Case.make "lyra") in
  List.iter
    (fun (label, from, into) ->
      let edited = replace ~from ~into base in
      Alcotest.(check bool) (label ^ ": edited") false (String.equal edited base);
      reject label edited)
    [
      ("no nodes", {|"n": 4|}, {|"n": 0|});
      ("negative n", {|"n": 4|}, {|"n": -3|});
      ("empty window", {|"duration_us": 1500000|}, {|"duration_us": 0|});
      ("negative window", {|"duration_us": 1500000|}, {|"duration_us": -5|});
      ("negative clients", {|"clients": 2|}, {|"clients": -2|});
      ("unknown knob", {|"knob": "default"|}, {|"knob": "martian"|});
      ("unknown protocol", {|"protocol": "lyra"|}, {|"protocol": "martian"|});
    ]

(* Random cases: the sweep's generator (perturbation ops and a mild
   fault) plus up to two eclipses, two delay inflations and an
   adversary, all valid for their [n]. *)
let gen_attack_case seed =
  let rng = Crypto.Rng.create (Int64.of_int seed) in
  let int bound = Crypto.Rng.int rng bound in
  let some_of l = List.filter (fun _ -> Crypto.Rng.bool rng) l in
  let protocol = Crypto.Rng.pick rng Explore.Knobs.protocols in
  let n = 4 + int 4 in
  let case =
    Explore.Search.gen_case rng ~protocol
      ~knob:(Crypto.Rng.pick rng (Explore.Knobs.safe protocol))
      ~n ~duration_us:(1 + int 3_000_000) ~clients:(int 4) ~with_faults:true
  in
  let nodes = List.init n Fun.id in
  let window () =
    let from_us = int 4_000_000 in
    (from_us, from_us + 1 + int 1_000_000)
  in
  let eclipse plan =
    let victim = int n in
    let owned, rest =
      List.partition (fun _ -> Crypto.Rng.bool rng)
        (List.filter (fun i -> i <> victim) nodes)
    in
    let from_us, until_us = window () in
    let delay_us = if Crypto.Rng.bool rng then Some (int 100_000) else None in
    Sim.Faults.eclipse ~victim ~from_us ~until_us ~owned ~diverse:(some_of rest)
      ?delay_us plan
  in
  let inflate plan =
    let a, b = List.partition (fun _ -> Crypto.Rng.bool rng) nodes in
    let from_us, until_us = window () in
    Sim.Faults.delay_inflate ~from_us ~until_us ~a ~b ~extra_us:(int 200_000) plan
  in
  let rec repeat k f x = if k = 0 then x else repeat (k - 1) f (f x) in
  let faults =
    case.Explore.Case.faults |> repeat (int 3) eclipse |> repeat (int 3) inflate
  in
  let gst = int 3_000_000 and max_extra = int 200_000 in
  let adversary =
    match int 3 with
    | 0 -> None
    | 1 -> Some (Sim.Adversary.Pre_gst { gst; max_extra })
    | _ ->
        let victims = match some_of nodes with [] -> [ 0 ] | vs -> vs in
        Some (Sim.Adversary.Targeted { gst; max_extra; victims })
  in
  { case with faults; adversary }

(* Every way to drop one object member from a JSON tree, with the key
   dropped. *)
let rec drop_one (v : Metrics.Json.t) =
  let replace_nth i x l = List.mapi (fun j y -> if j = i then x else y) l in
  match v with
  | Metrics.Json.Obj members ->
      List.concat
        (List.mapi
           (fun i (k, x) ->
             (k, Metrics.Json.Obj (List.filteri (fun j _ -> j <> i) members))
             :: List.map
                  (fun (k', x') -> (k', Metrics.Json.Obj (replace_nth i (k, x') members)))
                  (drop_one x))
           members)
  | Metrics.Json.List items ->
      List.concat
        (List.mapi
           (fun i x ->
             List.map
               (fun (k, x') -> (k, Metrics.Json.List (replace_nth i x' items)))
               (drop_one x))
           items)
  | _ -> []

let prop_case_round_trip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"case: random artifacts re-serialize identically"
       ~count:200 QCheck.(int_bound 1_000_000)
       (fun seed ->
         let s = case_to_string (gen_attack_case seed) in
         match Explore.Case.of_string s with
         | Ok c -> String.equal s (case_to_string c)
         | Error e -> QCheck.Test.fail_reportf "%s does not load: %s" s e))

(* Only the members version 1 lacks may go missing; dropping any other
   is an [Error], never an exception. *)
let prop_case_requires_members =
  let optional = [ "eclipses"; "inflations"; "adversary" ] in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"case: dropping a required member is an Error"
       ~count:50 QCheck.(int_bound 1_000_000)
       (fun seed ->
         List.for_all
           (fun (key, v) ->
             List.mem key optional
             ||
             match Metrics.Json.read Explore.Case.desc v with
             | Error _ -> true
             | Ok _ -> QCheck.Test.fail_reportf "accepted without %S" key)
           (drop_one (Metrics.Json.value Explore.Case.desc (gen_attack_case seed)))))

(* ------------------------------------------------------------------ *)
(* Disabled perturbation is free: a run with [Perturb.none] must be    *)
(* indistinguishable from one that never mentions perturbations.       *)
(* ------------------------------------------------------------------ *)

let test_disabled_perturb_bit_identical () =
  let plain =
    Testutil.run_scenario ~seed:13L "lyra" ~duration_us:1_500_000
  in
  let with_none =
    Testutil.run_scenario ~seed:13L "lyra" ~perturb:Sim.Perturb.none
      ~duration_us:1_500_000
  in
  Alcotest.(check int) "committed" plain.committed_txs with_none.committed_txs;
  Alcotest.(check int) "messages" plain.messages with_none.messages;
  Alcotest.(check int) "bytes" plain.bytes with_none.bytes;
  Alcotest.(check int)
    "latency samples"
    (Metrics.Recorder.count plain.latency_ms)
    (Metrics.Recorder.count with_none.latency_ms);
  Alcotest.(check (float 0.0))
    "latency mean"
    (Metrics.Recorder.mean plain.latency_ms)
    (Metrics.Recorder.mean with_none.latency_ms);
  Alcotest.(check bool) "honest logs identical" true
    (Array.for_all2
       (List.equal (fun (k1, d1) (k2, d2) ->
            String.equal k1 k2 && String.equal d1 d2))
       plain.honest_logs with_none.honest_logs);
  Alcotest.(check bool) "seq bounds identical" true
    (Array.for_all2
       (List.equal (fun (a, b, c) (x, y, z) ->
            Int.equal a x && Int.equal b y && Int.equal c z))
       plain.seq_bounds with_none.seq_bounds)

(* ------------------------------------------------------------------ *)
(* Oracle verdicts.                                                    *)
(* ------------------------------------------------------------------ *)

(* The content digest is memoised per key, but an equivocation that
   commits different payloads under one key must still get its own
   digest, and prefix agreement must flag it. *)
let test_content_digest_memo () =
  let committed key payloads =
    {
      Protocol.key;
      txs =
        Array.of_list
          (List.mapi
             (fun i payload ->
               {
                 Lyra.Types.tx_id = Printf.sprintf "t%d" i;
                 payload;
                 submitted_at = 0;
                 origin = 0;
               })
             payloads);
      seq = 1;
      output_at = 0;
    }
  in
  let fresh key payloads =
    snd (List.hd (Harness.Scenario.content_digests [| [ committed key payloads ] |]).(0))
  in
  let logs =
    Harness.Scenario.content_digests
      [|
        [ committed "0.0" [ "a"; "b" ]; committed "1.0" [ "c" ] ];
        [ committed "0.0" [ "a"; "b" ]; committed "1.0" [ "c" ] ];
        [ committed "0.0" [ "a"; "x" ] ];
      |]
  in
  let digest node i = snd (List.nth logs.(node) i) in
  Alcotest.(check string) "equal batches share a digest" (digest 0 0) (digest 1 0);
  Alcotest.(check string) "memo = fresh digest" (fresh "0.0" [ "a"; "b" ]) (digest 1 0);
  Alcotest.(check string) "split payload = its fresh digest"
    (fresh "0.0" [ "a"; "x" ]) (digest 2 0);
  Alcotest.(check bool) "split payload digest differs" false
    (String.equal (digest 0 0) (digest 2 0));
  let run = Testutil.run_scenario ~seed:13L "lyra" ~duration_us:500_000 in
  let prefix_findings r =
    List.filter
      (String.equal "prefix-agreement")
      (oracle_names (Harness.Oracle.check ~liveness:Harness.Oracle.Off r))
  in
  Alcotest.(check (list string)) "equal logs agree" []
    (prefix_findings { run with honest_logs = Array.sub logs 0 2 });
  Alcotest.(check (list string)) "equivocation flagged" [ "prefix-agreement" ]
    (prefix_findings { run with honest_logs = logs })

let test_oracles_clean_on_healthy () =
  List.iter
    (fun protocol ->
      let case =
        Explore.Case.make
          ~duration_us:(Explore.Search.duration_for protocol)
          protocol
      in
      let findings = Explore.Case.check case (Explore.Case.run case) in
      Alcotest.(check (list string))
        (protocol ^ " clean") [] (oracle_names findings))
    Explore.Knobs.protocols

(* A perturbed-but-sound schedule must also be clean: perturbations
   reorder, they do not corrupt. *)
let test_oracles_clean_under_perturbation () =
  let case =
    {
      (Explore.Case.make ~duration_us:1_500_000 "lyra") with
      Explore.Case.perturb =
        [
          Sim.Perturb.Delay_window
            {
              from_us = 1_800_000;
              until_us = 2_100_000;
              src = Some 1;
              dst = None;
              extra_us = 300_000;
            };
          Sim.Perturb.Reverse_window
            {
              from_us = 2_200_000;
              until_us = 2_260_000;
              src = None;
              dst = None;
            };
        ];
    }
  in
  let findings = Explore.Case.check case (Explore.Case.run case) in
  Alcotest.(check (list string)) "clean" [] (oracle_names findings)

(* ------------------------------------------------------------------ *)
(* The explorer self-test: a protocol broken exactly where the paper's *)
(* ordering guards sit must be found, shrunk to a minimal case, and    *)
(* replayed deterministically.                                         *)
(* ------------------------------------------------------------------ *)

let test_finds_and_shrinks_broken_protocol () =
  match
    Explore.Search.sweep ~seed:3L ~runs:3
      ~pairs:[ ("lyra", "no-window-check") ]
      ()
  with
  | Explore.Search.Clean _ ->
      Alcotest.fail "explorer missed the deliberately broken protocol"
  | Explore.Search.Violating { first; minimal; _ } ->
      Alcotest.(check bool) "found seq-bounds violation" true
        (List.mem "seq-lower-bound" (oracle_names first.findings));
      Alcotest.(check bool) "minimal still violates" true
        (minimal.findings <> []);
      (* the violation is schedule-independent, so shrinking must strip
         every perturbation op and fault from the reproducer *)
      Alcotest.(check int) "no perturb ops left" 0
        (List.length minimal.case.Explore.Case.perturb);
      Alcotest.(check bool) "no faults left" true
        (Sim.Faults.is_none minimal.case.Explore.Case.faults);
      (* replay the minimal case twice: bit-for-bit the same verdict *)
      let run1 =
        Explore.Case.check minimal.case (Explore.Case.run minimal.case)
      in
      let run2 =
        Explore.Case.check minimal.case (Explore.Case.run minimal.case)
      in
      Alcotest.(check bool) "replay deterministic" true
        (findings_equal run1 run2 && findings_equal run1 minimal.findings)

(* Shrinking strips noise that does not contribute to the violation. *)
let test_shrink_strips_noise () =
  let noisy =
    {
      (Explore.Case.make ~knob:"no-window-check" ~duration_us:1_500_000
         "lyra")
      with
      Explore.Case.clients = 2;
      faults =
        Sim.Faults.(
          none |> loss ~from_us:1_600_000 ~until_us:1_700_000 ~drop_p:0.02);
      perturb =
        [
          Sim.Perturb.Delay_nth { nth = 10; extra_us = 40_000 };
          Sim.Perturb.Delay_nth { nth = 60; extra_us = 90_000 };
        ];
    }
  in
  let findings = Explore.Case.check noisy (Explore.Case.run noisy) in
  Alcotest.(check bool) "noisy case violates" true (findings <> []);
  let minimal, _ = Explore.Search.shrink noisy findings in
  Alcotest.(check int) "ops stripped" 0
    (List.length minimal.case.Explore.Case.perturb);
  Alcotest.(check bool) "faults stripped" true
    (Sim.Faults.is_none minimal.case.Explore.Case.faults);
  Alcotest.(check int) "clients reduced" 1 minimal.case.Explore.Case.clients;
  Alcotest.(check bool) "still violates" true (minimal.findings <> [])

(* ------------------------------------------------------------------ *)
(* The smoke sweep `dune runtest` depends on: one pass over the whole  *)
(* safe-knob catalog plus a handful of perturbed cases, all clean.     *)
(* ------------------------------------------------------------------ *)

let test_smoke_sweep () =
  match Explore.Search.sweep ~seed:5L ~runs:15 () with
  | Explore.Search.Clean runs -> Alcotest.(check int) "all runs" 15 runs
  | Explore.Search.Violating { first; _ } ->
      Alcotest.failf "smoke sweep violated %s on %s"
        (String.concat "," (oracle_names first.findings))
        (Explore.Case.label first.case)

(* ------------------------------------------------------------------ *)
(* Checked-in repro artifact: the known-good reproducer must keep      *)
(* reproducing its violation, deterministically, forever.              *)
(* ------------------------------------------------------------------ *)

let read_checked_in name =
  let candidates = [ name; "test/" ^ name; "../test/" ^ name ] in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.failf "could not locate %s" name
  | Some path -> In_channel.with_open_text path In_channel.input_all

let load_repro name =
  match Explore.Case.of_string (read_checked_in name) with
  | Ok case -> case
  | Error e -> Alcotest.failf "checked-in repro %s does not parse: %s" name e

let load_checked_in_repro () = load_repro "repro_no_window_check.json"

(* A version-1 artifact written before the attack vocabulary existed -
   the checked-in reproducer is exactly that - must keep loading, with
   an empty attack plan and no adversary. *)
let test_case_v1_compat () =
  let case = load_checked_in_repro () in
  Alcotest.(check int)
    "no eclipses" 0
    (List.length case.Explore.Case.faults.Sim.Faults.eclipses);
  Alcotest.(check int)
    "no inflations" 0
    (List.length case.Explore.Case.faults.Sim.Faults.inflations);
  Alcotest.(check bool) "no adversary" true
    (Option.is_none case.Explore.Case.adversary)

let test_checked_in_repro_regression () =
  let case = load_checked_in_repro () in
  let first = Explore.Case.check case (Explore.Case.run case) in
  let second = Explore.Case.check case (Explore.Case.run case) in
  Alcotest.(check bool) "replays identically" true (findings_equal first second);
  Alcotest.(check (list string))
    "reproduces the seq-bounds violation" [ "seq-lower-bound" ]
    (oracle_names first)

(* The version-2 attack artifact (test_explore's [rich_case]: eclipses,
   a delay inflation, a targeted adversary and all three perturbation
   ops) keeps reproducing the censorship it was recorded with. *)
let test_checked_in_v2_repro_regression () =
  let case = load_repro "repro_v2_attack.json" in
  let first = Explore.Case.check case (Explore.Case.run case) in
  let second = Explore.Case.check case (Explore.Case.run case) in
  Alcotest.(check bool) "replays identically" true (findings_equal first second);
  Alcotest.(check (list string))
    "reproduces the censorship exposure" [ "censorship-exposure" ]
    (oracle_names first)

(* The serialized form is part of the contract: re-writing a loaded
   artifact gives the checked-in bytes back. A version-1 file is
   re-written as version 2, with its missing fields at their defaults. *)
let v1_as_v2 =
  {|{
  "version": 2,
  "protocol": "lyra",
  "knob": "no-window-check",
  "n": 4,
  "seed": 1,
  "duration_us": 1500000,
  "clients": 1,
  "faults": {
    "losses": [],
    "partitions": [],
    "crashes": [],
    "skews": [],
    "eclipses": [],
    "inflations": []
  },
  "adversary": null,
  "perturb": []
}
|}

let test_artifacts_reserialize () =
  let reserialize name =
    case_to_string (load_repro name)
  in
  Alcotest.(check string)
    "v2 artifact byte-identical"
    (read_checked_in "repro_v2_attack.json")
    (reserialize "repro_v2_attack.json");
  Alcotest.(check string)
    "pompe partition artifact byte-identical"
    (read_checked_in "repro_pompe_partition.json")
    (reserialize "repro_pompe_partition.json");
  Alcotest.(check string)
    "v1 artifact re-written as v2" v1_as_v2
    (reserialize "repro_no_window_check.json")

let suite =
  [
    Alcotest.test_case "case json round-trip" `Quick test_case_roundtrip;
    Alcotest.test_case "case json rejects garbage" `Quick
      test_case_rejects_garbage;
    prop_case_round_trip;
    prop_case_requires_members;
    Alcotest.test_case "disabled perturbation is free" `Quick
      test_disabled_perturb_bit_identical;
    Alcotest.test_case "content digest memo" `Quick test_content_digest_memo;
    Alcotest.test_case "oracles clean on healthy protocols" `Quick
      test_oracles_clean_on_healthy;
    Alcotest.test_case "oracles clean under sound perturbation" `Quick
      test_oracles_clean_under_perturbation;
    Alcotest.test_case "finds and shrinks broken protocol" `Quick
      test_finds_and_shrinks_broken_protocol;
    Alcotest.test_case "shrink strips noise" `Quick test_shrink_strips_noise;
    Alcotest.test_case "smoke sweep clean" `Slow test_smoke_sweep;
    Alcotest.test_case "checked-in repro regression" `Quick
      test_checked_in_repro_regression;
    Alcotest.test_case "v1 artifact back-compat" `Quick test_case_v1_compat;
    Alcotest.test_case "checked-in v2 repro regression" `Quick
      test_checked_in_v2_repro_regression;
    Alcotest.test_case "artifacts re-serialize byte-identically" `Quick
      test_artifacts_reserialize;
  ]
