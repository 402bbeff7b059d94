(* One benchmark repetition: run one workload once through
   Harness.Scenario.run, check its outputs and print one JSON line of
   measurements. perfbench/run.py drives repetitions and aggregates.

     main.exe --workload NAME --seed N [--mode plain|traced|twin] [--probes]

   Keys under "sim" are simulated and must repeat bit for bit at one
   seed; keys under "host" are measured on this machine. *)

type v = F of float | I of int | S of string

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_value = function
  | F x when Float.is_finite x -> Printf.sprintf "%.17g" x
  | F _ -> "null"
  | I i -> string_of_int i
  | S s -> json_string s

let json_obj kvs =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) kvs)
  ^ "}"

let section kvs = json_obj (List.map (fun (k, v) -> (k, json_value v)) kvs)

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 1) fmt

(* Peak resident set of this process (VmHWM), MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> fail "no VmHWM in /proc/self/status"
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
  in
  let kb = scan () in
  close_in ic;
  float_of_int kb /. 1024.

let secs ns = float_of_int ns /. 1e9

let max_over f a = Array.fold_left (fun m x -> Float.max m (f x)) 0. a

let longest_log (r : Harness.Scenario.result) =
  Array.fold_left
    (fun best l -> if List.length l > List.length best then l else best)
    [] r.honest_logs

let () =
  let workload = ref "" and seed = ref 1 and mode = ref "plain" and probes = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workloads.names);
      ("--seed", Arg.Set_int seed, "N simulation seed");
      ("--mode", Arg.Set_string mode, "MODE plain, traced or twin");
      ("--probes", Arg.Set probes, " with --mode traced: also time the crypto operations");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "main.exe --workload NAME --seed N [--mode plain|traced|twin] [--probes]";
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None -> fail "unknown workload %S (have %s)" !workload (String.concat ", " Workloads.names)
  in
  let seed64 = Int64.of_int !seed in
  let traced = String.equal !mode "traced" in
  let adapter =
    match (!mode, w.twin) with
    | ("plain" | "traced"), _ -> w.adapter ~seed:seed64
    | "twin", Some twin -> twin ~seed:seed64
    | "twin", None -> fail "workload %s has no cost-model twin" w.name
    | m, _ -> fail "unknown mode %S" m
  in
  let probe = Probe.create ~traced in
  let gc0 = Gc.quick_stat () in
  let r =
    Harness.Scenario.run ~seed:seed64 ~warmup_us:w.warmup_us ~faults:w.faults
      ?workload:w.workload
      ?profile_bucket_us:(if traced then Some w.profile_bucket_us else None)
      (Probe.wrap probe adapter) ~n:w.n ~load:w.load ~duration_us:w.duration_us ()
  in
  let sp = probe.spans in
  Span.switch sp "done";
  let gc1 = Gc.quick_stat () in
  let at phase =
    match Span.entered sp phase with
    | Some t -> t
    | None -> fail "%s: phase %s never entered" w.name phase
  in
  (* Output checks: the same guards as the bench's check_safety, plus
     enough in-window commits to report a tail. A failed check still
     prints the measurements, then exits non-zero. *)
  let errors = ref [] in
  let check ok fmt =
    Printf.ksprintf (fun msg -> if not ok then errors := msg :: !errors) fmt
  in
  check r.prefix_safe "committed logs diverge";
  check (r.late_accepts = 0) "%d late accepts" r.late_accepts;
  Option.iter
    (fun v ->
      check false "invariant violation %s"
        (Format.asprintf "%a" Harness.Invariant_monitor.pp_violation v))
    r.first_violation;
  (* A tail percentile needs at least ten samples above it, so p50 at
     least twenty. *)
  let lat = r.latency_ms in
  check (Metrics.Recorder.count lat >= 20) "%d commits, too few for a tail"
    (Metrics.Recorder.count lat);
  let fairness =
    match r.fairness with
    | Some f -> f
    | None -> fail "%s seed %d: nothing committed, no fairness score" w.name !seed
  in
  let window_end = w.warmup_us + w.duration_us in
  let attempted, failed =
    Probe.failures probe ~from_us:w.warmup_us ~until_us:(window_end - w.deadline_us)
  in
  check (attempted > 0) "no transaction submitted before the deadline";
  let engine = Probe.engine probe in
  let c = probe.counters () in
  let by_kind = Sim.Engine.executed_by_kind engine in
  let sim =
    [
      ("throughput_tps", F r.throughput_tps);
      ("inversion_rate", F fairness.inversion_rate);
      ("committed_txs", I r.committed_txs);
      ("attempted", I attempted);
      ("failed", I failed);
      ("sim.engine.events", I (Sim.Engine.events_executed engine));
    ]
    @ List.map
        (fun (k, n) ->
          let k = match k with "cpu" -> "cpu_job" | "nic" -> "nic_tx" | k -> k in
          ("sim.engine.events." ^ k, I n))
        by_kind
    @ [
        ("sim.network.messages", I c.messages);
        ("sim.network.bytes", I c.bytes);
        ( "sim.network.messages_per_commit",
          F (float_of_int c.messages /. float_of_int (max 1 r.committed_txs)) );
        ("sim.network.dropped", I c.dropped);
        ("sim.network.duplicated", I c.duplicated);
        ( "sim.cpu.busy_s",
          F (Array.fold_left (fun s cpu -> s +. float_of_int (Sim.Cpu.busy_us cpu)) 0. c.cpus /. 1e6) );
        ("sim.cpu.util_max", F (max_over (Sim.Cpu.utilization ~over_us:window_end) c.cpus));
        ("sim.nic.util_max", F (max_over (Sim.Cpu.utilization ~over_us:window_end) c.nics));
        ("protocol.submit_calls", I (List.length probe.submit_order));
        ("protocol.decide_rounds", F r.decide_rounds);
        ("protocol.accept_rate", F r.accept_rate);
        ("fairness.gamma_violations",
          I (match fairness.gamma_rows with g :: _ -> g.violations | [] -> 0));
      ]
    @ List.filter_map
        (fun (label, rc) ->
          if Metrics.Recorder.is_empty rc then None
          else
            Some
              ( Printf.sprintf "%s.phase.%s_p50_ms" w.protocol label,
                F (Metrics.Recorder.percentile 50. rc) ))
        r.phases
    @ (match r.workload_streams with
      | [] -> []
      | ss ->
          let sum f = List.fold_left (fun a s -> a + f s) 0 ss in
          [
            ("workload.submitted", I (sum (fun s -> s.Workload.Engine.s_submitted)));
            ("workload.committed", I (sum (fun s -> s.Workload.Engine.s_committed)));
          ])
    @ (match fairness.frontrun_success with
      | Some x -> [ ("workload.searcher_success", F x) ]
      | None -> [])
    @
    match r.profile with
    | None -> []
    | Some p ->
        let p99 get =
          F
            (max_over
               (fun i ->
                 let rc = get p i in
                 if Metrics.Recorder.is_empty rc then 0. else Metrics.Recorder.percentile 99. rc)
               (Array.init w.n Fun.id))
        in
        [
          ("sim.cpu.backlog_p99_us", p99 Sim.Profile.cpu_backlog);
          ("sim.nic.backlog_p99_us", p99 Sim.Profile.nic_backlog);
        ]
  in
  let host =
    [
      ("wall_s", F (secs (at "done" - at "sim")));
      ("setup_s", F (secs (at "sim" - at "setup")));
      ("peak_rss_mb", F (peak_rss_mb ()));
      ("harness.sim_s", F (secs (at "post" - at "sim")));
      ("harness.post_s", F (secs (at "done" - at "post")));
      ("gc.minor_mwords", F ((gc1.minor_words -. gc0.minor_words) /. 1e6));
      ("gc.major_collections", I (gc1.major_collections - gc0.major_collections));
      ("gc.top_heap_mb", F (float_of_int (gc1.top_heap_words * (Sys.word_size / 8)) /. 1048576.));
    ]
    @
    if not traced then []
    else begin
      (* Fairness scoring, timed again on this run's logs; it must agree
         with the harness's own score. *)
      let decided = List.map fst (longest_log r) in
      let t0 = Span.now_ns () in
      let again = Fairness.score ~decided ~received:r.receive_logs () in
      let score_ns = Span.now_ns () - t0 in
      if not (Float.equal again.inversion_rate fairness.inversion_rate) then
        fail "%s: fairness rescoring disagrees" w.name;
      [
        ("harness.sim_self_s", F (secs (Span.self_ns sp ~phase:"sim" "self")));
        ("fairness.score_s", F (secs score_ns));
      ]
      @
      (* Probe at the workload's n, threshold and mean committed batch
         payload. *)
      if not !probes then []
      else
        List.map
          (fun (k, us) -> (k, F us))
          (Crypto_probe.run ~n:w.n
             ~threshold:(Lyra.Config.supermajority (Lyra.Config.default ~n:w.n))
             ~payload_bytes:(probe.batch_bytes / max 1 probe.batches))
    end
  in
  let spans =
    List.map
      (fun (phase, name, count, self, mx) ->
        json_obj
          [
            ("phase", json_string phase);
            ("name", json_string name);
            ("count", string_of_int count);
            ("self_s", json_value (F (secs self)));
            ("max_s", json_value (F (secs mx)));
          ])
      (Span.entries sp)
  in
  let manifest =
    [
      ("workload", S w.name);
      ("seed", I !seed);
      ("mode", S !mode);
      ("protocol", S w.protocol);
      ("n", I w.n);
      ("load", S (Workloads.load_name w.load));
      ("warmup_us", I w.warmup_us);
      ("duration_us", I w.duration_us);
      ("deadline_us", I w.deadline_us);
      ("knobs", S (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) w.knobs)));
      ("ocaml", S Sys.ocaml_version);
    ]
  in
  print_endline
    (json_obj
       [
         ("manifest", section manifest);
         ("sim", section sim);
         ("host", section host);
         ("spans", "[" ^ String.concat ", " spans ^ "]");
         ( "latency_ms",
           "[" ^ String.concat ", " (Array.to_list (Array.map (fun x -> json_value (F x)) (Metrics.Recorder.sorted lat))) ^ "]" );
         ("errors", "[" ^ String.concat ", " (List.rev_map json_string !errors) ^ "]");
       ]);
  if not (List.is_empty !errors) then
    fail "%s seed %d: %s" w.name !seed (String.concat "; " (List.rev !errors))
