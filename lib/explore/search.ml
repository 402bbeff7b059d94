type verdict = { case : Case.t; findings : Harness.Oracle.finding list }

type outcome =
  | Clean of int
  | Violating of {
      first : verdict;
      minimal : verdict;
      shrink_attempts : int;
      runs : int;
    }

(* ------------------------------------------------------------------ *)
(* Case generation. All randomness is drawn from one RNG seeded by the *)
(* sweep caller, *outside* the runs themselves — each generated case   *)
(* is pure data and replays identically.                               *)
(* ------------------------------------------------------------------ *)

let warmup_of_protocol protocol =
  match Knobs.make ~protocol ~knob:"default" with
  | Some (module P) -> P.default_warmup_us
  | None -> invalid_arg ("Search.warmup_of_protocol: unknown protocol " ^ protocol)

(* Pompē's ordering + consensus pipeline needs multi-second runway
   before anything commits (cf. test_protocol's golden durations). *)
let duration_for protocol =
  if String.equal protocol "pompe" then 8_000_000 else 1_500_000

let gen_endpoint rng ~n =
  if Int.equal (Crypto.Rng.int rng 2) 0 then None
  else Some (Crypto.Rng.int rng n)

(* Ops compose additively when their filters overlap, so the generator
   works from a per-case delay budget of 500–800 ms: deep enough to
   outrun Lyra's 480 ms acceptance window (the regime where a broken
   guard shows), yet — even with every op stacked on one link — safely
   under the monitor's 1 s stall watchdog, so an armed liveness oracle
   never fires on a schedule-only case. *)
let gen_op rng ~n ~horizon ~budget =
  match Crypto.Rng.int rng 3 with
  | 0 | 1 ->
      (* Draw from the upper half of what remains: single-op cases
         land 250–800 ms, enough to matter. *)
      let extra_us =
        max 1_000 (!budget - Crypto.Rng.int rng (max 1 (!budget / 2)))
      in
      budget := max 0 (!budget - extra_us);
      if Int.equal (Crypto.Rng.int rng 2) 0 then
        Sim.Perturb.Delay_nth { nth = Crypto.Rng.int rng 5_000; extra_us }
      else
        let from_us = Crypto.Rng.int rng horizon in
        Sim.Perturb.Delay_window
          {
            from_us;
            until_us = from_us + 10_000 + Crypto.Rng.int rng 200_000;
            src = gen_endpoint rng ~n;
            dst = gen_endpoint rng ~n;
            extra_us;
          }
  | _ ->
      (* A reversal costs 2 × (until - now) per matched message; charge
         the worst case against the budget. *)
      let len = 10_000 + Crypto.Rng.int rng (max 1 (min 60_000 (!budget / 4)))
      in
      budget := max 0 (!budget - (2 * len));
      let from_us = Crypto.Rng.int rng horizon in
      Sim.Perturb.Reverse_window
        {
          from_us;
          until_us = from_us + len;
          src = gen_endpoint rng ~n;
          dst = gen_endpoint rng ~n;
        }

let gen_perturb rng ~n ~horizon =
  let k = 1 + Crypto.Rng.int rng 3 in
  let budget = ref (500_000 + Crypto.Rng.int rng 300_000) in
  List.init k (fun _ -> gen_op rng ~n ~horizon ~budget)

(* Mild mutations only: one fault at a time, always healing/recovering,
   at most ⌊(n-1)/3⌋-sized damage — the regime where every safety
   oracle must keep holding. Skews are deliberately absent (they widen
   Lyra's admissible seq windows in ways the oracle bounds don't
   model). *)
let gen_faults rng ~n ~horizon =
  match Crypto.Rng.int rng 4 with
  | 0 ->
      let from_us = Crypto.Rng.int rng horizon in
      Sim.Faults.(
        none
        |> loss ~from_us
             ~until_us:(from_us + 50_000 + Crypto.Rng.int rng 250_000)
             ~drop_p:(0.01 +. (0.14 *. Crypto.Rng.float rng))
             ~dup_p:(0.1 *. Crypto.Rng.float rng))
  | 1 ->
      let from_us = Crypto.Rng.int rng horizon in
      Sim.Faults.(
        none
        |> partition ~from_us
             ~heal_us:(from_us + 50_000 + Crypto.Rng.int rng 250_000)
             ~island:[ Crypto.Rng.int rng n ])
  | 2 ->
      let at_us = Crypto.Rng.int rng horizon in
      Sim.Faults.(
        none
        |> crash
             ~node:(Crypto.Rng.int rng n)
             ~at_us
             ~recover_us:(at_us + 100_000 + Crypto.Rng.int rng 300_000))
  | _ -> Sim.Faults.none

let gen_case rng ~protocol ~knob ~n ~duration_us ~clients ~with_faults =
  let horizon = warmup_of_protocol protocol + duration_us in
  let seed = Int64.of_int (1 + Crypto.Rng.int rng 1_000_000) in
  let perturb = gen_perturb rng ~n ~horizon in
  let faults =
    if with_faults then gen_faults rng ~n ~horizon else Sim.Faults.none
  in
  { (Case.make ~knob ~n ~seed ~duration_us ~clients protocol) with
    faults;
    perturb;
  }

(* ------------------------------------------------------------------ *)
(* Shrinking: greedy removal to a fixpoint. A candidate is kept only   *)
(* if it still triggers at least one oracle that the original          *)
(* violation triggered — shrinking must not wander to a different bug. *)
(* ------------------------------------------------------------------ *)

let same_bug ~reference findings =
  List.exists
    (fun (f : Harness.Oracle.finding) ->
      List.exists
        (fun (r : Harness.Oracle.finding) -> String.equal f.oracle r.oracle)
        reference)
    findings

let remove_nth i l = List.filteri (fun j _ -> not (Int.equal i j)) l

let halve_op (op : Sim.Perturb.op) =
  match op with
  | Sim.Perturb.Delay_nth d when d.extra_us >= 2_000 ->
      Some (Sim.Perturb.Delay_nth { d with extra_us = d.extra_us / 2 })
  | Sim.Perturb.Delay_window w when w.extra_us >= 2_000 ->
      Some (Sim.Perturb.Delay_window { w with extra_us = w.extra_us / 2 })
  | Sim.Perturb.Delay_nth _ | Sim.Perturb.Delay_window _
  | Sim.Perturb.Reverse_window _ ->
      None

(* Candidate simplifications of a case, most aggressive first: drop a
   whole perturbation op or fault entry, neutralize the knob, then
   halve surviving delays. *)
let variants (c : Case.t) =
  let drop_ops =
    List.mapi (fun i _ -> { c with perturb = remove_nth i c.perturb }) c.perturb
  in
  let f = c.faults in
  let drop_faults =
    List.mapi
      (fun i _ ->
        { c with faults = { f with losses = remove_nth i f.losses } })
      f.losses
    @ List.mapi
        (fun i _ ->
          { c with faults = { f with partitions = remove_nth i f.partitions } })
        f.partitions
    @ List.mapi
        (fun i _ ->
          { c with faults = { f with crashes = remove_nth i f.crashes } })
        f.crashes
    @ List.mapi
        (fun i _ ->
          { c with faults = { f with skews_us = remove_nth i f.skews_us } })
        f.skews_us
  in
  let neutral_knob =
    if String.equal c.knob "default" then [] else [ { c with knob = "default" } ]
  in
  let fewer_clients = if c.clients > 1 then [ { c with clients = 1 } ] else [] in
  let halved =
    List.concat
      (List.mapi
         (fun i op ->
           match halve_op op with
           | None -> []
           | Some op' ->
               [
                 {
                   c with
                   perturb = List.mapi (fun j o -> if Int.equal i j then op' else o) c.perturb;
                 };
               ])
         c.perturb)
  in
  drop_ops @ drop_faults @ neutral_knob @ fewer_clients @ halved

let shrink ?(budget = 60) ?(log = fun _ -> ()) case reference =
  let attempts = ref 0 in
  let still_violates candidate =
    incr attempts;
    let findings = Case.check candidate (Case.run candidate) in
    if same_bug ~reference findings then Some findings else None
  in
  let rec fixpoint current current_findings =
    if !attempts >= budget then (current, current_findings)
    else
      let next =
        List.find_map
          (fun candidate ->
            if !attempts >= budget then None
            else
              Option.map
                (fun findings -> (candidate, findings))
                (still_violates candidate))
          (variants current)
      in
      match next with
      | None -> (current, current_findings)
      | Some (candidate, findings) ->
          log (Printf.sprintf "shrunk to: %s" (Case.label candidate));
          fixpoint candidate findings
  in
  let minimal, findings = fixpoint case reference in
  ({ case = minimal; findings }, !attempts)

(* ------------------------------------------------------------------ *)
(* The sweep.                                                         *)
(* ------------------------------------------------------------------ *)

let default_pairs () =
  List.concat_map
    (fun p -> List.map (fun k -> (p, k)) (Knobs.safe p))
    Knobs.protocols

let sweep ?(seed = 1L) ?(n = 4) ?duration_us ?(clients = 2) ?(runs = 30)
    ?(with_faults = true) ?pairs ?shrink_budget ?(log = fun _ -> ()) () =
  let pairs = match pairs with Some p -> p | None -> default_pairs () in
  if Int.equal (List.length pairs) 0 then invalid_arg "Search.sweep: no cases";
  let rng = Crypto.Rng.create seed in
  let baseline = List.length pairs in
  let rec loop i =
    if i >= runs then Clean runs
    else begin
      let protocol, knob = List.nth pairs (i mod baseline) in
      let duration_us =
        match duration_us with Some d -> d | None -> duration_for protocol
      in
      (* The first pass over the catalog runs clean schedules — the
         cheap guarantee that baselines are green before perturbing. *)
      let case =
        if i < baseline then
          Case.make ~knob ~n ~duration_us ~clients protocol
        else
          gen_case rng ~protocol ~knob ~n ~duration_us ~clients ~with_faults
      in
      log (Printf.sprintf "run %d/%d: %s" (i + 1) runs (Case.label case));
      let findings = Case.check case (Case.run case) in
      match findings with
      | [] -> loop (i + 1)
      | _ :: _ ->
          List.iter
            (fun f ->
              log (Format.asprintf "  VIOLATION %a" Harness.Oracle.pp_finding f))
            findings;
          let minimal, shrink_attempts =
            shrink ?budget:shrink_budget ~log case findings
          in
          Violating
            { first = { case; findings }; minimal; shrink_attempts; runs = i + 1 }
    end
  in
  loop 0
