(* Schedule-space explorer CLI.

   [lyra_explore sweep] runs many short cluster executions under
   generated schedule perturbations / fault mutations / Byzantine
   knobs, checks each against the safety oracles, and on a violation
   shrinks it and writes a replayable repro artifact (exit 1).

   [lyra_explore replay FILE] re-executes a repro artifact
   deterministically — twice, verifying both executions agree — and
   reports the oracle verdict.

   [lyra_explore attack] runs the attacker-window search: seeded
   eclipse / delay-inflation / pre-GST campaigns per protocol,
   binary-searching the minimal adversary budget before an oracle
   trips, and prints the scorecard. *)

open Cmdliner

let log line = print_endline line

let seed_t =
  let doc = "Sweep seed (generates cases; each case also embeds its own seed)." in
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc)

let n_t =
  let doc = "Cluster size." in
  Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc)

let runs_t =
  let doc = "Run budget for the sweep." in
  Arg.(value & opt int 30 & info [ "runs" ] ~docv:"K" ~doc)

let duration_t =
  let doc =
    "Measured duration per run, in seconds (default: per-protocol runway)."
  in
  Arg.(value & opt (some float) None & info [ "duration" ] ~docv:"SECONDS" ~doc)

let clients_t =
  let doc = "Closed-loop clients per node." in
  Arg.(value & opt int 2 & info [ "clients" ] ~docv:"K" ~doc)

let protocol_t =
  let doc = "Restrict the sweep to one protocol (lyra | pompe | hotstuff)." in
  Arg.(value & opt (some string) None & info [ "protocol" ] ~docv:"P" ~doc)

let knob_t =
  let doc =
    "Restrict to one knob (requires --protocol). Accepts broken knobs, \
     e.g. lyra/no-window-check, for explorer self-tests."
  in
  Arg.(value & opt (some string) None & info [ "knob" ] ~docv:"KNOB" ~doc)

let no_faults_t =
  let doc = "Perturb schedules only; do not mutate fault plans." in
  Arg.(value & flag & info [ "no-faults" ] ~doc)

let out_t =
  let doc = "Where to write the shrunk repro artifact on violation." in
  Arg.(
    value
    & opt string "lyra-repro.json"
    & info [ "out" ] ~docv:"FILE" ~doc)

let shrink_budget_t =
  let doc = "Max executions spent shrinking a violation." in
  Arg.(value & opt int 60 & info [ "shrink-budget" ] ~docv:"K" ~doc)

let pairs_of ~protocol ~knob =
  match (protocol, knob) with
  | None, None -> Ok None
  | None, Some _ -> Error "--knob requires --protocol"
  | Some p, None -> (
      match Explore.Knobs.safe p with
      | [] -> Error (Printf.sprintf "unknown protocol %S" p)
      | knobs -> Ok (Some (List.map (fun k -> (p, k)) knobs)))
  | Some p, Some k -> (
      match Explore.Knobs.make ~protocol:p ~knob:k with
      | None -> Error (Printf.sprintf "unknown knob %s/%s" p k)
      | Some _ -> Ok (Some [ (p, k) ]))

let print_findings findings =
  List.iter
    (fun f -> log (Format.asprintf "  %a" Harness.Oracle.pp_finding f))
    findings

let sweep seed n runs duration clients protocol knob no_faults out shrink_budget
    =
  match pairs_of ~protocol ~knob with
  | Error msg ->
      prerr_endline ("lyra_explore: " ^ msg);
      2
  | Ok pairs -> (
      let duration_us =
        Option.map (fun d -> int_of_float (d *. 1e6)) duration
      in
      match
        Explore.Search.sweep ~seed ~n ?duration_us ~clients ~runs
          ~with_faults:(not no_faults) ?pairs ~shrink_budget ~log ()
      with
      | Explore.Search.Clean runs ->
          log (Printf.sprintf "sweep clean: %d runs, no oracle violations" runs);
          0
      | Explore.Search.Violating { first; minimal; shrink_attempts; runs } ->
          log
            (Printf.sprintf "violation after %d run%s:" runs
               (if Int.equal runs 1 then "" else "s"));
          print_findings first.findings;
          log
            (Printf.sprintf "minimal case after %d shrink execution%s: %s"
               shrink_attempts
               (if Int.equal shrink_attempts 1 then "" else "s")
               (Explore.Case.label minimal.case));
          print_findings minimal.findings;
          Metrics.Json.write_file ~file:out Explore.Case.desc minimal.case;
          log (Printf.sprintf "repro written to %s" out);
          1)

let load_case path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> Explore.Case.of_string contents

let replay file expect_violation =
  match load_case file with
  | Error msg ->
      prerr_endline ("lyra_explore: cannot load repro: " ^ msg);
      2
  | Ok case -> (
      log (Printf.sprintf "replaying %s" (Explore.Case.label case));
      let verdict () = Explore.Case.check case (Explore.Case.run case) in
      let first = verdict () in
      let second = verdict () in
      let agree =
        List.equal
          (fun (a : Harness.Oracle.finding) (b : Harness.Oracle.finding) ->
            String.equal a.oracle b.oracle && String.equal a.detail b.detail)
          first second
      in
      if not agree then begin
        log "NONDETERMINISTIC: two replays disagree on the oracle verdict";
        2
      end
      else
        match first with
        | [] ->
            log "replay clean: no oracle violations (reproduced twice)";
            if expect_violation then 1 else 0
        | findings ->
            log "replay reproduces the violation (twice, identically):";
            print_findings findings;
            if expect_violation then 0 else 1)

let attack seed n clients placements protocol =
  let protocols =
    match protocol with
    | None -> Explore.Attack.default_protocols
    | Some p -> [ p ]
  in
  match Explore.Attack.scorecard ~seed ~n ~clients ~placements ~protocols ~log () with
  | exception Invalid_argument msg ->
      prerr_endline ("lyra_explore: " ^ msg);
      2
  | rows ->
      List.iter
        (fun (r : Explore.Attack.row) ->
          log
            (Printf.sprintf "%-9s %-14s %-16s max=%d minimal=%s tripped=%s \
                             ceiling=%s runs=%d"
               r.protocol r.attack r.budget_unit r.max_budget
               (match r.minimal_budget with
               | None -> "-"
               | Some b -> string_of_int b)
               (Option.value r.tripped ~default:"-")
               (Option.value r.ceiling_tripped ~default:"-")
               r.runs))
        rows;
      0

let sweep_cmd =
  let doc = "Sweep the schedule space under safety oracles." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const sweep $ seed_t $ n_t $ runs_t $ duration_t $ clients_t $ protocol_t
      $ knob_t $ no_faults_t $ out_t $ shrink_budget_t)

let replay_cmd =
  let doc = "Re-execute a repro artifact deterministically (twice)." in
  let file_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Repro artifact (JSON).")
  in
  let expect_t =
    let doc = "Exit 0 only if the violation reproduces (regression mode)." in
    Arg.(value & flag & info [ "expect-violation" ] ~doc)
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const replay $ file_t $ expect_t)

let attack_cmd =
  let doc =
    "Search minimal attacker windows (eclipse, delay inflation, pre-GST \
     delay) per protocol."
  in
  let placements_t =
    let doc = "Seeded adversary placements per campaign row." in
    Arg.(value & opt int 1 & info [ "placements" ] ~docv:"K" ~doc)
  in
  Cmd.v (Cmd.info "attack" ~doc)
    Term.(
      const attack $ seed_t $ n_t $ clients_t $ placements_t $ protocol_t)

let main =
  let doc = "deterministic schedule-space explorer with safety oracles" in
  Cmd.group (Cmd.info "lyra_explore" ~doc ~version:"1.0.0")
    [ sweep_cmd; replay_cmd; attack_cmd ]

let () = exit (Cmd.eval' main)
