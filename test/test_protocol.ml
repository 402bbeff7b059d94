(* The protocol-generic runtime: the registry, the adapters and the one
   generic scenario driver.

   Two properties anchor the refactor:
   - golden reproduction: the generic [Harness.Scenario.run] produces
     bit-for-bit the numbers the per-protocol drivers it replaced
     produced at the same seed (values captured before the refactor);
   - determinism: for every registered protocol, two runs from the same
     seed are identical down to the per-transaction latency samples. *)

let get = Testutil.get_protocol

let run ?seed protocol ~duration_us =
  Testutil.run_scenario ?seed protocol ~duration_us

(* ------------------------------------------------------------------ *)
(* Registry.                                                           *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  Alcotest.(check (list string))
    "registered baselines"
    [ "lyra"; "pompe"; "hotstuff"; "dag" ]
    Protocol.Registry.names;
  List.iter
    (fun name ->
      let (module P : Protocol.NODE) = get name in
      Alcotest.(check string) "adapter name matches key" name P.name)
    Protocol.Registry.names;
  Alcotest.(check bool) "unknown name" true
    (Option.is_none (Protocol.Registry.get "tendermint"))

(* ------------------------------------------------------------------ *)
(* Golden reproduction at seed 7: the generic [Harness.Scenario.run]   *)
(* must keep producing these exact numbers — any event moving shows    *)
(* up here. Values were regenerated once, when the multi-core CPU bug  *)
(* was fixed (jobs now take their full service time on one core        *)
(* instead of service/cores on a serialized server), which legitimately*)
(* shifts every timing-dependent count at the same seed.               *)
(* ------------------------------------------------------------------ *)

let test_golden_lyra () =
  let r = run ~seed:7L "lyra" ~duration_us:2_000_000 in
  Alcotest.(check int) "committed" 16 r.committed_txs;
  Alcotest.(check int) "messages" 4528 r.messages;
  Alcotest.(check int) "bytes" 450792 r.bytes;
  Alcotest.(check bool) "prefix safe" true r.prefix_safe;
  Alcotest.(check int) "late accepts" 0 r.late_accepts;
  Alcotest.(check (float 1e-9)) "decide rounds" 1.0 r.decide_rounds;
  Alcotest.(check (float 1e-9)) "accept rate" 1.0 r.accept_rate;
  Alcotest.(check int) "latency samples" 16 (Metrics.Recorder.count r.latency_ms);
  Alcotest.(check (float 1e-6)) "latency mean" 729.820125
    (Metrics.Recorder.mean r.latency_ms)

(* The seed-7 Lyra golden decides every instance in round 1. This one
   loses 20 % of messages and crashes a node, so some instances run
   DBFT rounds ≥ 2 (mean decide round > 1): it pins the round machine
   past the VVB fast path. *)
let test_golden_lyra_rounds () =
  let faults =
    Sim.Faults.(
      none
      |> loss ~from_us:1_000_000 ~until_us:3_000_000 ~drop_p:0.2
      |> crash ~node:1 ~at_us:2_000_000 ~recover_us:2_600_000)
  in
  let r = Testutil.run_scenario ~seed:7L ~n:7 ~faults "lyra" ~duration_us:3_000_000 in
  Alcotest.(check int) "committed" 4 r.committed_txs;
  Alcotest.(check int) "messages" 18240 r.messages;
  Alcotest.(check int) "bytes" 2342512 r.bytes;
  Alcotest.(check bool) "prefix safe" true r.prefix_safe;
  Alcotest.(check int) "late accepts" 0 r.late_accepts;
  Alcotest.(check (float 1e-9)) "decide rounds" 1.166666666667 r.decide_rounds;
  Alcotest.(check (float 1e-9)) "accept rate" 0.818181818182 r.accept_rate

let test_golden_pompe () =
  let r = run ~seed:7L "pompe" ~duration_us:8_000_000 in
  Alcotest.(check int) "committed" 14 r.committed_txs;
  Alcotest.(check int) "messages" 852 r.messages;
  Alcotest.(check int) "bytes" 146760 r.bytes;
  Alcotest.(check bool) "prefix safe" true r.prefix_safe;
  Alcotest.(check int) "late accepts" 0 r.late_accepts;
  Alcotest.(check (float 1e-9)) "decide rounds" 0.0 r.decide_rounds;
  Alcotest.(check (float 1e-9)) "accept rate" 1.0 r.accept_rate;
  Alcotest.(check int) "latency samples" 14 (Metrics.Recorder.count r.latency_ms);
  Alcotest.(check (float 1e-6)) "latency mean" 2692.355143
    (Metrics.Recorder.mean r.latency_ms)

let test_golden_hotstuff () =
  let r = run ~seed:7L "hotstuff" ~duration_us:2_000_000 in
  Alcotest.(check int) "committed" 20 r.committed_txs;
  Alcotest.(check int) "messages" 273 r.messages;
  Alcotest.(check int) "bytes" 54600 r.bytes;
  Alcotest.(check bool) "prefix safe" true r.prefix_safe;
  Alcotest.(check int) "late accepts" 0 r.late_accepts;
  Alcotest.(check (float 1e-9)) "decide rounds" 0.0 r.decide_rounds;
  Alcotest.(check (float 1e-9)) "accept rate" 1.0 r.accept_rate;
  Alcotest.(check int) "latency samples" 20 (Metrics.Recorder.count r.latency_ms);
  Alcotest.(check (float 1e-6)) "latency mean" 466.341400
    (Metrics.Recorder.mean r.latency_ms)

let test_golden_dag () =
  let r = run ~seed:7L "dag" ~duration_us:2_000_000 in
  Alcotest.(check int) "committed" 28 r.committed_txs;
  Alcotest.(check int) "messages" 416 r.messages;
  Alcotest.(check int) "bytes" 43080 r.bytes;
  Alcotest.(check bool) "prefix safe" true r.prefix_safe;
  Alcotest.(check int) "late accepts" 0 r.late_accepts;
  Alcotest.(check (float 1e-9)) "decide rounds" 2.277777777778 r.decide_rounds;
  Alcotest.(check (float 1e-9)) "accept rate" 1.0 r.accept_rate;
  Alcotest.(check int) "latency samples" 28 (Metrics.Recorder.count r.latency_ms);
  Alcotest.(check (float 1e-6)) "latency mean" 428.646429
    (Metrics.Recorder.mean r.latency_ms)

(* ------------------------------------------------------------------ *)
(* Determinism: same seed, same everything — for every baseline.       *)
(* ------------------------------------------------------------------ *)

let duration_for = function
  | "pompe" -> 8_000_000 (* ordering + consensus pipeline needs runway *)
  | _ -> 2_000_000

let test_determinism () =
  List.iter
    (fun protocol ->
      let d = duration_for protocol in
      let a = run ~seed:42L protocol ~duration_us:d in
      let b = run ~seed:42L protocol ~duration_us:d in
      let tag s = protocol ^ " " ^ s in
      Alcotest.(check int) (tag "committed") a.committed_txs b.committed_txs;
      Alcotest.(check int) (tag "messages") a.messages b.messages;
      Alcotest.(check int) (tag "bytes") a.bytes b.bytes;
      Alcotest.(check bool) (tag "prefix safe") a.prefix_safe b.prefix_safe;
      Alcotest.(check (array (float 1e-12)))
        (tag "latency samples")
        (Metrics.Recorder.to_array a.latency_ms)
        (Metrics.Recorder.to_array b.latency_ms))
    Protocol.Registry.names

(* ------------------------------------------------------------------ *)
(* LAT3R anatomy: at n=16 under the paper placement, Lyra's good-case  *)
(* BOC decide spans ≈ 3 one-way message delays (Thm 3), and the phase  *)
(* breakdown is internally consistent (propose→deliver plus            *)
(* deliver→decide composes to propose→decide; e2e dominates).          *)
(* ------------------------------------------------------------------ *)

let test_phase_breakdown () =
  let n = 16 in
  let r =
    Harness.Scenario.run ~seed:9L (get "lyra") ~n
      ~load:(Harness.Scenario.Closed 1) ~duration_us:2_000_000 ()
  in
  let mean label =
    match List.assoc_opt label r.phases with
    | Some rec_ when not (Metrics.Recorder.is_empty rec_) ->
        Metrics.Recorder.mean rec_
    | _ -> Alcotest.failf "phase %s has no samples" label
  in
  (* Mean pairwise one-way delay of the placement (the Δ the paper
     counts latency in). *)
  let regions = Sim.Regions.paper_placement n in
  let total = ref 0 and cnt = ref 0 in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          total := !total + Sim.Regions.one_way_us a b;
          incr cnt)
        regions)
    regions;
  let delta_ms = float_of_int !total /. float_of_int !cnt /. 1000. in
  let boc = mean "boc_decide" in
  let in_delays = boc /. delta_ms in
  Alcotest.(check bool)
    (Printf.sprintf "boc_decide ~ 3 one-way delays (got %.2f)" in_delays)
    true
    (in_delays > 2.0 && in_delays < 4.0);
  let vvb = mean "vvb_deliver" and dbft = mean "dbft_decide" in
  Alcotest.(check bool) "vvb_deliver + dbft_decide composes to boc_decide" true
    (Float.abs ((vvb +. dbft) -. boc) < 0.2 *. boc);
  Alcotest.(check bool) "e2e dominates boc_decide" true (mean "e2e" >= boc)

(* ------------------------------------------------------------------ *)
(* The HotStuff baseline behaves like an SMR protocol.                 *)
(* ------------------------------------------------------------------ *)

let test_hotstuff_baseline () =
  let r = run ~seed:3L "hotstuff" ~duration_us:2_000_000 in
  Alcotest.(check bool) "commits something" true (r.committed_txs > 0);
  Alcotest.(check bool) "prefix safe" true r.prefix_safe;
  Alcotest.(check int) "late accepts" 0 r.late_accepts;
  Alcotest.(check (float 1e-9)) "no decide rounds recorded" 0.0 r.decide_rounds;
  Alcotest.(check string) "protocol label" "hotstuff" r.protocol

(* ------------------------------------------------------------------ *)
(* Batch keys: the Printf-free formatter, and one shared string per    *)
(* batch per run.                                                      *)
(* ------------------------------------------------------------------ *)

let test_key_of_iid_matches_sprintf () =
  let fields = [ 0; 1; 9; 10; 99; 100; 12345; max_int; -1; -9; -10; -100; min_int ] in
  List.iter
    (fun proposer ->
      List.iter
        (fun index ->
          Alcotest.(check string)
            (Printf.sprintf "%d/%d" proposer index)
            (Printf.sprintf "%d/%d" proposer index)
            (Protocol.key_of_iid { Lyra.Types.proposer; index }))
        fields)
    fields

(* A 4-node Pompē cluster driven through its adapter: every committed
   key of an iid, from [on_output] and from [output_log] on every node,
   is one physical string, and it reads as [key_of_iid]. *)
let test_pompe_keys_shared () =
  let (module P : Protocol.NODE) = get "pompe" in
  let n = 4 in
  let engine = Sim.Engine.create ~seed:7L () in
  let net = P.make_net engine ~n ~jitter:0.01 () in
  let iid_of_key = Hashtbl.create 64 in
  let outputs = Array.make n [] in
  let nodes =
    Array.init n (fun id ->
        P.create net ~id
          ~on_observe:(fun (b : Lyra.Types.batch) ->
            Hashtbl.replace iid_of_key
              (Printf.sprintf "%d/%d" b.iid.proposer b.iid.index)
              b.iid)
          ~on_output:(fun c -> outputs.(id) <- c.Protocol.key :: outputs.(id))
          ())
  in
  Array.iter P.start nodes;
  for k = 0 to 39 do
    ignore (P.submit nodes.(k mod n) ~payload:(Printf.sprintf "tx-%d" k) : string)
  done;
  Sim.Engine.run engine ~until:8_000_000;
  (* The first string seen per key content; every later one must be it. *)
  let canonical = Hashtbl.create 64 in
  let check_key key =
    match Hashtbl.find_opt iid_of_key key with
    | None -> Alcotest.failf "committed key %s was never observed" key
    | Some iid -> (
        Alcotest.(check string) "reads as key_of_iid" (Protocol.key_of_iid iid) key;
        match Hashtbl.find_opt canonical key with
        | None -> Hashtbl.replace canonical key key
        | Some first ->
            Alcotest.(check bool) ("one physical string for " ^ key) true (first == key))
  in
  Array.iteri
    (fun id node ->
      let log = List.map (fun c -> c.Protocol.key) (P.output_log node) in
      Alcotest.(check bool) (Printf.sprintf "node %d committed" id) true (log <> []);
      Alcotest.(check (list string)) "on_output = output_log" (List.rev outputs.(id)) log;
      List.iter check_key outputs.(id);
      List.iter check_key log)
    nodes;
  Alcotest.(check bool) "several batches" true (Hashtbl.length canonical >= 2)

(* [prefix_safe] compares content, not just keys: node 1's log is
   read back with its first batch's transactions replaced, under the
   same keys, and the run turns unsafe; the untouched run is safe. *)
module Split_payload (P : Protocol.NODE) : Protocol.NODE = struct
  include (P : Protocol.NODE with type net = P.net and type t := P.t)

  type t = { node : P.t; id : int }

  let create net ~id ?on_observe ~on_output () =
    { node = P.create net ~id ?on_observe ~on_output (); id }

  let start t = P.start t.node

  let submit t ~payload = P.submit t.node ~payload

  let honest t = P.honest t.node

  let seq_bounds t = P.seq_bounds t.node

  let stats t = P.stats t.node

  let output_log t =
    match P.output_log t.node with
    | (c : Protocol.committed) :: rest when Int.equal t.id 1 ->
        let forged =
          { Lyra.Types.tx_id = "forged"; payload = "forged"; submitted_at = 0; origin = 0 }
        in
        { c with txs = [| forged |] } :: rest
    | log -> log
end

let test_prefix_safe_sees_content () =
  let run adapter =
    Harness.Scenario.run ~seed:7L adapter ~n:4 ~load:(Harness.Scenario.Closed 2)
      ~duration_us:2_000_000 ()
  in
  let plain = run (get "lyra") in
  let split = run (module Split_payload ((val get "lyra")) : Protocol.NODE) in
  let keys (r : Harness.Scenario.result) = Array.map (List.map fst) r.honest_logs in
  Alcotest.(check bool) "untouched run safe" true plain.prefix_safe;
  Alcotest.(check bool) "node 1 committed" true (plain.honest_logs.(1) <> []);
  Alcotest.(check bool) "same keys" true (keys plain = keys split);
  Alcotest.(check bool) "split payload unsafe" false split.prefix_safe

(* Words a cluster holds before its first event, per node: after
   [make_net] and every [create], before [start], after a full major
   collection. Engine and network shares are included. Only
   per-node bookkeeping that a node needs before any traffic may grow
   with n; recorders and output logs allocate on first use. *)
let words_per_node (module P : Protocol.NODE) ~n =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  let before = live () in
  let engine = Sim.Engine.create ~seed:7L () in
  let net = P.make_net engine ~n ~jitter:0.01 () in
  let nodes = Array.init n (fun id -> P.create net ~id ~on_output:ignore ()) in
  let after = live () in
  ignore (Sys.opaque_identity (engine, net, nodes));
  (after - before) / n

let test_fixed_memory_per_node () =
  List.iter
    (fun (name, bound) ->
      let words = words_per_node (get name) ~n:100 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d words per node <= %d" name words bound)
        true (words <= bound))
    (* Measured at n = 100: lyra 2 491, pompe 1 322, hotstuff 1 093,
       dag 6 238 (its DAG and vertex tables are presized). When every
       recorder allocated 1 024 floats at creation they read 9 676,
       5 426, 3 143 and 9 315. *)
    [ ("lyra", 3_500); ("pompe", 2_000); ("hotstuff", 1_600); ("dag", 7_500) ]

let suite =
  [
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "golden lyra" `Slow test_golden_lyra;
    Alcotest.test_case "golden lyra rounds" `Slow test_golden_lyra_rounds;
    Alcotest.test_case "golden pompe" `Slow test_golden_pompe;
    Alcotest.test_case "golden hotstuff" `Slow test_golden_hotstuff;
    Alcotest.test_case "golden dag" `Slow test_golden_dag;
    Alcotest.test_case "seeded determinism" `Slow test_determinism;
    Alcotest.test_case "hotstuff baseline" `Slow test_hotstuff_baseline;
    Alcotest.test_case "lyra phase breakdown (LAT3R)" `Slow test_phase_breakdown;
    Alcotest.test_case "key_of_iid = sprintf %d/%d" `Quick
      test_key_of_iid_matches_sprintf;
    Alcotest.test_case "pompe keys shared across nodes" `Quick
      test_pompe_keys_shared;
    Alcotest.test_case "prefix_safe compares content" `Quick
      test_prefix_safe_sees_content;
    Alcotest.test_case "fixed memory per node" `Quick test_fixed_memory_per_node;
  ]
