(* The fairness metrics suite (lib/fairness) and its live scorecard:
   the inversion counter's extremes and symmetry, the decided-rank
   projection, γ-batch-order monotonicity, seeded reproducibility of
   the whole report across every registered protocol, and the pinned
   n=16 scorecard row — the timestamp-ordered protocols (lyra, dag)
   must beat the leader-based baselines on inversion rate under the
   MEV-searcher (sandwich) workload. *)

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Crypto.Rng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pairs_of k = k * (k - 1) / 2

(* ------------------------------------------------------------------ *)
(* The merge-sort inversion counter.                                   *)
(* ------------------------------------------------------------------ *)

let test_inversion_extremes () =
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "identity k=%d" k)
        0
        (Fairness.count_inversions (Array.init k (fun i -> i)));
      Alcotest.(check int)
        (Printf.sprintf "reversal k=%d" k)
        (pairs_of k)
        (Fairness.count_inversions (Array.init k (fun i -> k - 1 - i))))
    [ 0; 1; 2; 3; 10; 64; 257 ]

let prop_inversion_symmetric =
  QCheck.Test.make
    ~name:"inversions: inv(p) + inv(reverse p) = C(k,2) on permutations"
    ~count:300
    QCheck.(int_bound 0xFF_FFFF)
    (fun seed ->
      let rng = Crypto.Rng.create (Int64.of_int seed) in
      let k = 2 + Crypto.Rng.int rng 80 in
      let p = Array.init k (fun i -> i) in
      shuffle rng p;
      let rev = Array.init k (fun i -> p.(k - 1 - i)) in
      let inv = Fairness.count_inversions p in
      inv >= 0 && inv <= pairs_of k
      && inv + Fairness.count_inversions rev = pairs_of k)

(* ------------------------------------------------------------------ *)
(* Decided-rank projection: unknown keys and duplicates drop out, so   *)
(* the pair count is exactly C(|decided ∩ received|, 2).               *)
(* ------------------------------------------------------------------ *)

let key sender index = Printf.sprintf "%d/%d" sender index

let prop_projection =
  QCheck.Test.make
    ~name:"inversions: projection drops unknown keys and duplicates"
    ~count:300
    QCheck.(int_bound 0xFF_FFFF)
    (fun seed ->
      let rng = Crypto.Rng.create (Int64.of_int seed) in
      let k = 1 + Crypto.Rng.int rng 30 in
      let decided = List.init k (fun i -> key (i mod 4) (i / 4)) in
      (* received: a shuffle of a random subset of decided, plus
         duplicates and strangers interleaved *)
      let subset =
        List.filter (fun _ -> Crypto.Rng.int rng 4 > 0) decided
      in
      let arr = Array.of_list subset in
      shuffle rng arr;
      let received =
        Array.to_list arr
        |> List.concat_map (fun k ->
               if Crypto.Rng.int rng 3 = 0 then [ k; k ] else [ k ])
        |> List.append [ "stranger/1"; "stranger/2" ]
      in
      let inv, pairs = Fairness.inversions ~decided ~received in
      let identity_inv, identity_pairs =
        Fairness.inversions ~decided ~received:decided
      in
      pairs = pairs_of (List.length subset)
      && inv <= pairs
      && identity_inv = 0
      && identity_pairs = pairs_of k)

(* ------------------------------------------------------------------ *)
(* γ-batch-order: tightening γ can only shrink the mandated set, and   *)
(* violations never exceed it.                                         *)
(* ------------------------------------------------------------------ *)

let prop_gamma_monotone =
  QCheck.Test.make ~name:"score: γ-violations are monotone in γ" ~count:200
    QCheck.(int_bound 0xFF_FFFF)
    (fun seed ->
      let rng = Crypto.Rng.create (Int64.of_int seed) in
      let k = 2 + Crypto.Rng.int rng 30 in
      let decided = List.init k (fun i -> key (i mod 4) (i / 4)) in
      let observers = 2 + Crypto.Rng.int rng 3 in
      let received =
        Array.init observers (fun _ ->
            let arr = Array.of_list decided in
            shuffle rng arr;
            Array.to_list arr
            |> List.filter (fun _ -> Crypto.Rng.int rng 5 > 0)
            |> List.mapi (fun i k -> (k, i * 100)))
      in
      let r = Fairness.score ~decided ~received () in
      let rec monotone = function
        | (a : Fairness.gamma_row) :: (b :: _ as tl) ->
            a.gamma < b.gamma
            && a.violations >= b.violations
            && a.mandated >= b.mandated
            && monotone tl
        | [ _ ] | [] -> true
      in
      monotone r.gamma_rows
      && List.for_all
           (fun (g : Fairness.gamma_row) -> g.violations <= g.mandated)
           r.gamma_rows
      && r.inversions <= r.pairs)

(* ------------------------------------------------------------------ *)
(* A repeated decided key keeps its first rank and scoring survives   *)
(* it: ranks index the deduplicated decided order.                     *)
(* ------------------------------------------------------------------ *)

let test_repeated_decided_key () =
  let decided = [ "0/0"; "1/0"; "0/0"; "2/0" ] in
  let received = [ "2/0"; "0/0"; "1/0" ] in
  Alcotest.(check (pair int int))
    "inversions over the deduplicated order" (2, 3)
    (Fairness.inversions ~decided ~received);
  let r =
    Fairness.score ~decided
      ~received:[| List.map (fun k -> (k, 0)) received; [ ("0/0", 0) ] |]
      ()
  in
  Alcotest.(check int) "decided keys" 3 r.decided;
  Alcotest.(check (pair int int)) "inversions/pairs" (2, 3) (r.inversions, r.pairs);
  Alcotest.(check (list int)) "one batch per sender" [ 1; 1; 1 ]
    (List.map (fun (s : Fairness.sender_row) -> s.batches) r.senders)

(* ------------------------------------------------------------------ *)
(* Equivalence with the string-table scorer that the per-observer     *)
(* int-array projection replaced. The reference is that code as it     *)
(* was, except that decided ranks index the deduplicated order (the    *)
(* repeated-key crash fix above).                                      *)
(* ------------------------------------------------------------------ *)

module Reference = struct
  let decided_ranks decided =
    let tbl = Hashtbl.create 257 in
    List.iter
      (fun key ->
        if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key (Hashtbl.length tbl))
      decided;
    tbl

  let projected_ranks drank received =
    let seen = Hashtbl.create 257 in
    let rev =
      List.fold_left
        (fun acc key ->
          if Hashtbl.mem seen key then acc
          else begin
            Hashtbl.replace seen key ();
            match Hashtbl.find_opt drank key with
            | Some r -> r :: acc
            | None -> acc
          end)
        [] received
    in
    Array.of_list (List.rev rev)

  let gammas = [ 0.55; 0.67; 0.75; 0.9; 1.0 ]

  let score ?frontrun_success ~decided ~received () : Fairness.report =
    let drank = decided_ranks decided in
    let dec =
      let seen = Hashtbl.create 257 in
      Array.of_list
        (List.filter
           (fun key ->
             if Hashtbl.mem seen key then false
             else begin
               Hashtbl.replace seen key ();
               true
             end)
           decided)
    in
    let k = Array.length dec in
    let m = Array.length received in
    let inv = ref 0 and pairs = ref 0 in
    Array.iter
      (fun log ->
        let ranks = projected_ranks drank (List.map fst log) in
        let kk = Array.length ranks in
        inv := !inv + Fairness.count_inversions ranks;
        pairs := !pairs + (kk * (kk - 1) / 2))
      received;
    let opos =
      Array.map
        (fun log ->
          let tbl = Hashtbl.create 257 in
          List.iteri
            (fun i (key, _t) ->
              if Hashtbl.mem drank key && not (Hashtbl.mem tbl key) then
                Hashtbl.add tbl key i)
            log;
          tbl)
        received
    in
    let counters = List.map (fun g -> (g, ref 0, ref 0)) gammas in
    for i = 0 to k - 1 do
      let hi = min (k - 1) (i + 64) in
      for j = i + 1 to hi do
        let a = dec.(i) and b = dec.(j) in
        let both = ref 0 and b_first = ref 0 in
        Array.iter
          (fun tbl ->
            match (Hashtbl.find_opt tbl a, Hashtbl.find_opt tbl b) with
            | Some ra, Some rb ->
                incr both;
                if rb < ra then incr b_first
            | _ -> ())
          opos;
        let both = !both and b_first = !b_first in
        let a_first = both - b_first in
        if both > 0 then
          List.iter
            (fun (g, mandated, viol) ->
              let super x =
                2 * x > both && float_of_int x >= g *. float_of_int both
              in
              if super a_first || super b_first then begin
                incr mandated;
                if super b_first then incr viol
              end)
            counters
      done
    done;
    let gamma_rows =
      List.map
        (fun (gamma, mandated, viol) ->
          { Fairness.gamma; mandated = !mandated; violations = !viol })
        counters
    in
    let norm pos len =
      if len <= 1 then 0.0 else float_of_int pos /. float_of_int (len - 1)
    in
    let recv_norms : (string, float list ref) Hashtbl.t = Hashtbl.create 257 in
    Array.iter
      (fun log ->
        let ks = projected_ranks drank (List.map fst log) in
        let len = Array.length ks in
        Array.iteri
          (fun pos r ->
            let key = dec.(r) in
            match Hashtbl.find_opt recv_norms key with
            | Some l -> l := norm pos len :: !l
            | None -> Hashtbl.replace recv_norms key (ref [ norm pos len ]))
          ks)
      received;
    let sender_acc : (int, (float * int) ref) Hashtbl.t = Hashtbl.create 64 in
    Array.iteri
      (fun i key ->
        match Hashtbl.find_opt recv_norms key with
        | None -> ()
        | Some l ->
            let prs = Array.of_list !l in
            Array.sort Float.compare prs;
            let adv = prs.((Array.length prs - 1) / 2) -. norm i k in
            let sender = Fairness.sender_of_key key in
            (match Hashtbl.find_opt sender_acc sender with
            | Some r ->
                let s, c = !r in
                r := (s +. adv, c + 1)
            | None -> Hashtbl.replace sender_acc sender (ref (adv, 1))))
      dec;
    let senders =
      List.map
        (fun (sender, r) ->
          let s, c = !r in
          { Fairness.sender; batches = c; advantage = s /. float_of_int c })
        (Sim.Det.sorted_bindings ~cmp:Int.compare sender_acc)
    in
    {
      decided = k;
      observers = m;
      pairs = !pairs;
      inversions = !inv;
      inversion_rate =
        (if !pairs > 0 then float_of_int !inv /. float_of_int !pairs else 0.0);
      gamma_rows;
      senders;
      frontrun_success;
    }
end

(* A decided log of up to 200 keys over a few senders, some repeated;
   observers each see a locally jittered copy of it, missing some keys,
   seeing some twice and seeing strangers nobody decided. *)
let gen_scoring_input rng =
  let k = Crypto.Rng.int rng 201 in
  let senders = 1 + Crypto.Rng.int rng 6 in
  let keys = Array.init k (fun i -> key (i mod senders) (i / senders)) in
  let decided =
    Array.to_list keys
    |> List.concat_map (fun key ->
           if Crypto.Rng.int rng 20 = 0 then [ key; keys.(Crypto.Rng.int rng k) ]
           else [ key ])
  in
  let jitter = 1 + Crypto.Rng.int rng 40 in
  let observer () =
    Array.to_list keys
    |> List.filter (fun _ -> Crypto.Rng.int rng 6 > 0)
    |> List.mapi (fun i key -> (i + Crypto.Rng.int rng jitter, key))
    |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.concat_map (fun (_, key) ->
           match Crypto.Rng.int rng 12 with
           | 0 -> [ key; key ]
           | 1 -> [ Printf.sprintf "stranger/%d" (Crypto.Rng.int rng 5); key ]
           | _ -> [ key ])
    |> List.mapi (fun i key -> (key, i * 100))
  in
  let received = Array.init (Crypto.Rng.int rng 8) (fun _ -> observer ()) in
  (decided, received)

let prop_score_matches_reference =
  QCheck.Test.make
    ~name:"score: int-array projection = string-table reference, bit for bit"
    ~count:300
    QCheck.(int_bound 0xFF_FFFF)
    (fun seed ->
      let rng = Crypto.Rng.create (Int64.of_int seed) in
      let decided, received = gen_scoring_input rng in
      let frontrun_success =
        if seed mod 2 = 0 then Some (float_of_int (seed mod 100) /. 100.) else None
      in
      Fairness.score ?frontrun_success ~decided ~received ()
      = Reference.score ?frontrun_success ~decided ~received ())

(* ------------------------------------------------------------------ *)
(* Live runs: the whole report reproduces bit-identically from the     *)
(* same seed, for every registered protocol.                           *)
(* ------------------------------------------------------------------ *)

let duration_for = function "pompe" -> 8_000_000 | _ -> 2_000_000

let test_report_deterministic () =
  List.iter
    (fun protocol ->
      let run () =
        Testutil.run_scenario ~seed:42L protocol
          ~duration_us:(duration_for protocol)
      in
      let a = run () and b = run () in
      let report (r : Harness.Scenario.result) =
        match r.fairness with
        | Some f -> f
        | None -> Alcotest.failf "%s: no fairness report" protocol
      in
      let fa = report a and fb = report b in
      Alcotest.(check int) (protocol ^ " decided") fa.decided fb.decided;
      Alcotest.(check int) (protocol ^ " inversions") fa.inversions fb.inversions;
      Alcotest.(check bool)
        (protocol ^ " full report bit-identical")
        true (fa = fb);
      Alcotest.(check bool)
        (protocol ^ " receive logs bit-identical")
        true (a.receive_logs = b.receive_logs))
    Protocol.Registry.names

(* ------------------------------------------------------------------ *)
(* The pinned scorecard row (docs/FAIRNESS.md): under the MEV-searcher *)
(* sandwich workload at n=16, the timestamp-ordered protocols commit   *)
(* in an order close to what the network saw — measured inversion      *)
(* rates hold a >4x margin over HotStuff (and Pompē), pinned here at   *)
(* 2x so jitter can't flake the build.                                 *)
(* ------------------------------------------------------------------ *)

let searcher_workload () =
  Workload.Engine.spec
    ~market:{ Workload.Engine.reserve_x = 50_000_000; reserve_y = 50_000_000 }
    ~searcher:
      {
        Workload.Engine.searchers = 3;
        observe_delay_us = 3_000;
        back_delay_us = 2_000;
        front_fraction = 0.5;
        min_victim_amount = 10_000;
      }
    [
      {
        Workload.Engine.name = "amm-users";
        clients = 50_000;
        rate_per_client = 0.0016;
        shape = Workload.Engine.Constant;
        mix = Workload.Engine.Amm_swaps { amount_min = 20_000; amount_max = 80_000 };
      };
    ]

let test_scorecard_pin () =
  let rate protocol =
    let r =
      Harness.Scenario.run ~seed:11L
        (Testutil.get_protocol protocol)
        ~n:16
        ~load:(Harness.Scenario.Closed 0)
        ~workload:(searcher_workload ()) ~duration_us:4_000_000 ()
    in
    Alcotest.(check bool) (protocol ^ " commits") true (r.committed_txs > 0);
    match r.fairness with
    | Some f when f.frontrun_success <> None -> f.inversion_rate
    | Some _ -> Alcotest.failf "%s: searcher flow never engaged" protocol
    | None -> Alcotest.failf "%s: no fairness report" protocol
  in
  let lyra = rate "lyra" and dag = rate "dag" and hotstuff = rate "hotstuff" in
  Alcotest.(check bool)
    (Printf.sprintf "lyra inversion rate (%.4f) < hotstuff/2 (%.4f)" lyra
       (hotstuff /. 2.))
    true
    (lyra < hotstuff /. 2.);
  Alcotest.(check bool)
    (Printf.sprintf "dag inversion rate (%.4f) < hotstuff/2 (%.4f)" dag
       (hotstuff /. 2.))
    true
    (dag < hotstuff /. 2.)

let suite =
  [
    Alcotest.test_case "inversion extremes" `Quick test_inversion_extremes;
    QCheck_alcotest.to_alcotest prop_inversion_symmetric;
    QCheck_alcotest.to_alcotest prop_projection;
    QCheck_alcotest.to_alcotest prop_gamma_monotone;
    Alcotest.test_case "repeated decided key" `Quick test_repeated_decided_key;
    QCheck_alcotest.to_alcotest prop_score_matches_reference;
    Alcotest.test_case "seeded report reproducibility" `Slow
      test_report_deterministic;
    Alcotest.test_case "scorecard: lyra/dag beat hotstuff under sandwich"
      `Slow test_scorecard_pin;
  ]
