type finding = { oracle : string; detail : string }

let pp_finding fmt f = Format.fprintf fmt "%s: %s" f.oracle f.detail

(* ------------------------------------------------------------------ *)
(* Individual oracles. Each reads only the end-of-run result record    *)
(* (plus whatever the continuous monitor already established), so      *)
(* attaching them can never perturb the run they judge.                *)
(* ------------------------------------------------------------------ *)

(* Content-aware prefix agreement: logs of (key, digest) pairs must be
   prefixes of the longest log — the check behind the result's
   [prefix_safe] flag, here naming the first node that fails it. Two
   nodes committing different payloads under one instance id
   (equivocation) diverge here although their keys agree. *)
let prefix_agreement (r : Scenario.result) =
  let logs = r.Scenario.honest_logs in
  if Array.length logs = 0 then None
  else begin
    let longest = logs.(Scenario.longest logs) in
    let bad = ref None in
    Array.iteri
      (fun i l ->
        if Option.is_none !bad && not (Scenario.is_prefix l longest) then
          bad := Some (i, List.length l))
      logs;
    match !bad with
    | None -> None
    | Some (i, len) ->
        Some
          {
            oracle = "prefix-agreement";
            detail =
              Printf.sprintf
                "honest node #%d's log (%d entries) is not a prefix of the \
                 longest log"
                i len;
          }
  end

(* The continuous monitor already caught prefix/durability divergence
   at its exact engine timestamp; surface its verdict as an oracle so
   every check funnels through one interface. *)
let monitor_clean (r : Scenario.result) =
  match r.Scenario.first_violation with
  | None -> None
  | Some v ->
      Some
        {
          oracle = "monitor";
          detail = Format.asprintf "%a" Invariant_monitor.pp_violation v;
        }

(* Commit durability, Lyra-specific counter: a decision that lands
   below the already-taken prefix boundary would rewrite history if
   honored; nodes count (and refuse) them as [late_accepts]. *)
let commit_durability (r : Scenario.result) =
  if r.Scenario.late_accepts <= 0 then None
  else
    Some
      {
        oracle = "commit-durability";
        detail =
          Printf.sprintf "%d decision(s) arrived below the committed boundary"
            r.Scenario.late_accepts;
      }

(* BOC-Validity / ordering linearizability: every decided sequence
   number within its adapter-declared admissibility bounds. *)
let seq_lower_bound (r : Scenario.result) =
  let bad = ref None in
  Array.iteri
    (fun node bounds ->
      List.iter
        (fun (seq, low, high) ->
          if Option.is_none !bad && (seq < low || seq > high) then
            bad := Some (node, seq, low, high))
        bounds)
    r.Scenario.seq_bounds;
  match !bad with
  | None -> None
  | Some (node, seq, low, high) ->
      Some
        {
          oracle = "seq-lower-bound";
          detail =
            Printf.sprintf
              "honest node #%d decided seq %d outside its admissible window \
               [%d, %d]"
              node seq low high;
        }

(* Committed sequence numbers must leave each node in output order:
   the log is the total order, so a seq regression means the node
   emitted history out of order. *)
let monotone_seqs (r : Scenario.result) =
  let bad = ref None in
  Array.iteri
    (fun node bounds ->
      let prev = ref min_int in
      List.iter
        (fun (seq, _, _) ->
          if Option.is_none !bad && seq < !prev then
            bad := Some (node, !prev, seq);
          prev := max !prev seq)
        bounds)
    r.Scenario.seq_bounds;
  match !bad with
  | None -> None
  | Some (node, prev, seq) ->
      Some
        {
          oracle = "monotone-seqs";
          detail =
            Printf.sprintf "honest node #%d emitted seq %d after seq %d" node
              seq prev;
        }

(* Liveness within budget: the cluster committed something and never
   stalled. Opt-in — a partition or crash plan is *expected* to stall,
   so the explorer only arms this under mild plans. *)
type liveness_level = Off | Commit_only | Full

let liveness_commit (r : Scenario.result) =
  if Int.equal r.Scenario.committed_txs 0 then
    Some
      {
        oracle = "liveness";
        detail = "nothing committed within the measurement window";
      }
  else None

let liveness (r : Scenario.result) =
  match liveness_commit r with
  | Some f -> Some f
  | None -> (
      match r.Scenario.stall_windows with
      | [] -> None
      | (from_us, until_us) :: _ ->
          Some
            {
              oracle = "liveness";
              detail =
                Printf.sprintf "commit progress stalled during [%dus, %dus]"
                  from_us until_us;
            })

(* Per-victim liveness: the victim's own committed prefix stalls while
   the rest of the cluster keeps advancing. Judged on last-commit
   times, not log lengths — a victim that merely lags by a few entries
   is still receiving; one whose frontier gap exceeds the stall budget
   is starved. Vacuously clean when no non-victim progressed either
   (that is cluster-wide liveness's job, not this oracle's). Only
   honest victims are judged: a Byzantine node keeps no log whose
   progress the protocol owes anyone. *)
let victim_liveness ?(stall_gap_us = 1_500_000) ~victims (r : Scenario.result) =
  let last = r.Scenario.last_commit_us in
  let is_victim i = List.exists (Int.equal i) victims in
  let frontier =
    Array.fold_left
      (fun acc i -> if is_victim i then acc else max acc last.(i))
      (-1) r.Scenario.honest_ids
  in
  if frontier < 0 then None
  else begin
    let bad = ref None in
    List.iter
      (fun v ->
        if
          Option.is_none !bad
          && Array.exists (Int.equal v) r.Scenario.honest_ids
        then begin
          let v_last = max last.(v) 0 in
          if frontier - v_last > stall_gap_us then bad := Some (v, v_last)
        end)
      victims;
    match !bad with
    | None -> None
    | Some (v, v_last) ->
        Some
          {
            oracle = "victim-liveness";
            detail =
              Printf.sprintf
                "victim node #%d last advanced its committed log at %dus \
                 while the non-victim frontier reached %dus"
                v v_last frontier;
          }
  end

(* Censorship exposure: the victim's clients submitted transactions yet
   no honest replica ever committed one of them — the adversary kept
   the victim's load out of the total order entirely. Counted over the
   whole run and cluster-wide so closed-loop clients (which stop
   submitting once starved) cannot make the check vacuous. *)
let censorship_exposure ~victims (r : Scenario.result) =
  let bad = ref None in
  List.iter
    (fun v ->
      if
        Option.is_none !bad
        && v >= 0
        && v < Array.length r.Scenario.submitted_by
        && r.Scenario.submitted_by.(v) > 0
        && Int.equal r.Scenario.committed_own.(v) 0
      then bad := Some v)
    victims;
  match !bad with
  | None -> None
  | Some v ->
      Some
        {
          oracle = "censorship-exposure";
          detail =
            Printf.sprintf
              "node #%d submitted %d transaction(s) but no honest replica \
               ever committed one of them"
              v r.Scenario.submitted_by.(v);
        }

(* ------------------------------------------------------------------ *)
(* The suite.                                                          *)
(* ------------------------------------------------------------------ *)

let safety_suite =
  [
    prefix_agreement;
    monitor_clean;
    commit_durability;
    seq_lower_bound;
    monotone_seqs;
  ]

let attack_suite ~victims =
  [ (fun r -> victim_liveness ~victims r); censorship_exposure ~victims ]

let suite ~liveness:level =
  match level with
  | Off -> safety_suite
  | Commit_only -> safety_suite @ [ liveness_commit ]
  | Full -> safety_suite @ [ liveness ]

let check ?(victims = []) ~liveness r =
  let oracles =
    match victims with
    | [] -> suite ~liveness
    | _ -> suite ~liveness @ attack_suite ~victims
  in
  List.filter_map (fun oracle -> oracle r) oracles
