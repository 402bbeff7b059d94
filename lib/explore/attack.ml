(* Attacker-window search: how much of the network must a targeted
   adversary control before a protocol's oracle suite notices?

   Each campaign kind has an integer budget knob with a protocol-
   independent meaning (owned links, 100 ms of route inflation, 200 ms
   of pre-GST delay). For a seeded adversary placement we probe the
   maximal budget first — if even that stays clean the row reports no
   window — and otherwise binary-search the minimal budget that trips
   an oracle. Everything runs through {!Case}, so every probed point is
   pure data and replays bit-identically. *)

type kind =
  | Eclipse of { diversity : int }
  | Delay_inflate
  | Pre_gst_delay

type row = {
  protocol : string;
  attack : string;
  budget_unit : string;
  max_budget : int;
  minimal_budget : int option;
  tripped : string option;
  ceiling_tripped : string option;
  runs : int;
}

let kind_label = function
  | Eclipse { diversity } -> Printf.sprintf "eclipse(d=%d)" diversity
  | Delay_inflate -> "delay-inflate"
  | Pre_gst_delay -> "pre-gst-delay"

let budget_unit_of = function
  | Eclipse _ -> "owned-links"
  | Delay_inflate -> "100ms-inflation"
  | Pre_gst_delay -> "200ms-max-delay"

(* An eclipse budget is the number of victim links the adversary owns;
   [diversity] links are off limits (netgroup-diverse peers), so the
   ceiling shrinks with the defense knob. The delay campaigns get a
   fixed ceiling of 8 units (800 ms inflation / 1.6 s pre-GST delay)
   — far past the stall watchdog, so a protocol that survives the
   ceiling genuinely has no window in this family. *)
let max_budget ~n = function
  | Eclipse { diversity } -> max 0 (n - 1 - diversity)
  | Delay_inflate -> 8
  | Pre_gst_delay -> 8

(* Eclipse rows disarm cluster-wide liveness (the non-victims owe
   progress, the victim oracle judges the victim); the delay campaigns
   attack the whole cluster, so they arm the graded liveness the
   protocol owes when healthy. *)
let liveness_for ~protocol = function
  | Eclipse _ -> Harness.Oracle.Off
  | Delay_inflate | Pre_gst_delay -> Case.healthy_liveness protocol

let shuffled rng l =
  let arr = Array.of_list l in
  for i = Array.length arr - 1 downto 1 do
    let j = Crypto.Rng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

(* Attack runs get a floor of 4 s of measured time regardless of the
   sweep default: chained HotStuff burns a 4-delta view timeout per
   eclipsed-leader view and its honest trio needs a couple of seconds
   to pull the commit frontier away from a frozen victim — in a 1.5 s
   window the whole cluster just looks stalled and the per-victim
   verdict would be vacuous. *)
let duration_of protocol = max 4_000_000 (Search.duration_for protocol)

let take k l = List.filteri (fun i _ -> i < k) l

let drop k l = List.filteri (fun i _ -> i >= k) l

(* The attacked window spares the warm-up plus the first fifth of the
   measurement window: Lyra's distance measurement completes
   undisturbed, and slow-bootstrap pipelines (chained HotStuff's first
   3-chain lands after its nominal warm-up) establish a commit frontier
   first — so a tripped oracle speaks about steady-state resilience,
   not about a sabotaged bootstrap. *)
let case_for ~protocol ~n ~seed ~clients ~victim ~order kind budget =
  let warmup = Search.warmup_of_protocol protocol in
  let duration_us = duration_of protocol in
  let attack_from = warmup + (duration_us / 5) in
  let horizon = warmup + duration_us in
  let faults, adversary =
    if Int.equal budget 0 then (Sim.Faults.none, None)
    else
      match kind with
      | Eclipse { diversity } ->
          let diverse = take diversity order in
          let owned = take budget (drop diversity order) in
          ( Sim.Faults.(
              none
              |> eclipse ~victim ~from_us:attack_from ~until_us:horizon
                   ~owned ~diverse),
            None )
      | Delay_inflate ->
          ( Sim.Faults.(
              none
              |> delay_inflate_regions ~n ~from_us:attack_from
                   ~until_us:horizon
                   ~between:(Sim.Regions.Oregon, Sim.Regions.Ireland)
                   ~extra_us:(budget * 100_000)),
            None )
      | Pre_gst_delay ->
          ( Sim.Faults.none,
            Some
              (Sim.Adversary.Pre_gst
                 {
                   gst = warmup + (duration_us / 2);
                   max_extra = budget * 200_000;
                 }) )
  in
  Case.make ~n ~seed ~duration_us ~clients ~faults ?adversary protocol

(* A budget point trips when any armed oracle finds something, or when
   throughput collapses below a quarter of the attack-free baseline —
   the blunt signal for campaigns that strangle the cluster without
   quite tripping a named property. The per-victim stall gap scales
   with the measurement window (a third of it, floored at 300 ms):
   the oracle's 1.5 s default is tuned for long runs and would eat a
   short protocol's whole window. *)
let trip ~baseline ~victims ~liveness ~stall_gap_us
    (result : Harness.Scenario.result) =
  let graded = Harness.Oracle.check ~liveness result in
  let attacked =
    match victims with
    | [] -> []
    | _ ->
        List.filter_map
          (fun oracle -> oracle result)
          [
            (fun r -> Harness.Oracle.victim_liveness ~stall_gap_us ~victims r);
            Harness.Oracle.censorship_exposure ~victims;
          ]
  in
  match graded @ attacked with
  | f :: _ -> Some f.Harness.Oracle.oracle
  | [] ->
      if result.Harness.Scenario.committed_txs * 4 < baseline then
        Some "degradation"
      else None

let search_row ?(log = fun _ -> ()) ~rng ~protocol ~n ~seed ~clients
    ~placements ~baseline kind =
  let hi = max_budget ~n kind in
  let runs = ref 0 in
  let best = ref None in
  let best_trip = ref None in
  let ceiling = ref None in
  let liveness = liveness_for ~protocol kind in
  let stall_gap_us = max 300_000 (duration_of protocol / 3) in
  for _p = 1 to placements do
    let victim = Crypto.Rng.int rng n in
    let order =
      shuffled rng
        (List.filter (fun i -> not (Int.equal i victim)) (List.init n Fun.id))
    in
    let victims = match kind with Eclipse _ -> [ victim ] | _ -> [] in
    let eval budget =
      incr runs;
      let case = case_for ~protocol ~n ~seed ~clients ~victim ~order kind budget in
      let verdict =
        trip ~baseline ~victims ~liveness ~stall_gap_us (Case.run case)
      in
      log
        (Printf.sprintf "  %s %s budget=%d/%d -> %s" protocol
           (kind_label kind) budget hi
           (match verdict with Some o -> o | None -> "clean"));
      verdict
    in
    if hi >= 1 then begin
      match eval hi with
      | None -> ()
      | Some name ->
          if Option.is_none !ceiling then ceiling := Some name;
          (* The ceiling trips: bisect [1, hi] for the smallest tripping
             budget. Invariant: !hi_b always trips (with !name). *)
          let lo = ref 1 and hi_b = ref hi and name = ref name in
          while !lo < !hi_b do
            let mid = (!lo + !hi_b) / 2 in
            match eval mid with
            | Some n' ->
                name := n';
                hi_b := mid
            | None -> lo := mid + 1
          done;
          (match !best with
          | Some b when b <= !hi_b -> ()
          | Some _ | None ->
              best := Some !hi_b;
              best_trip := Some !name)
    end
  done;
  {
    protocol;
    attack = kind_label kind;
    budget_unit = budget_unit_of kind;
    max_budget = hi;
    minimal_budget = !best;
    tripped = !best_trip;
    ceiling_tripped = !ceiling;
    runs = !runs;
  }

let default_protocols = [ "lyra"; "pompe"; "hotstuff" ]

let attacks_for ~n =
  let f = (n - 1) / 3 in
  [
    Eclipse { diversity = 0 };
    Eclipse { diversity = f + 1 };
    Delay_inflate;
    Pre_gst_delay;
  ]

let scorecard ?(seed = 7L) ?(n = 4) ?(clients = 2) ?(placements = 1)
    ?(protocols = default_protocols) ?(log = fun _ -> ()) () =
  if n < 2 then invalid_arg "Attack.scorecard: need n >= 2";
  if placements < 1 then invalid_arg "Attack.scorecard: need placements >= 1";
  let rng = Crypto.Rng.create seed in
  List.concat_map
    (fun protocol ->
      (* One attack-free baseline per protocol anchors the degradation
         criterion for every row. *)
      let base =
        Case.make ~n ~seed ~duration_us:(duration_of protocol) ~clients
          protocol
      in
      let baseline = (Case.run base).Harness.Scenario.committed_txs in
      log
        (Printf.sprintf "%s baseline: %d committed transaction(s)" protocol
           baseline);
      List.map
        (fun kind ->
          search_row ~log ~rng ~protocol ~n ~seed ~clients ~placements
            ~baseline kind)
        (attacks_for ~n))
    protocols
