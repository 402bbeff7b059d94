type load = Closed of int | Open_rate of float

type result = {
  n : int;
  protocol : string;
  window_us : int;
  committed_txs : int;
  throughput_tps : float;
  latency_ms : Metrics.Recorder.t;
  decide_rounds : float;
  accept_rate : float;
  messages : int;
  bytes : int;
  prefix_safe : bool;
  late_accepts : int;
  dropped_msgs : int;
  dup_msgs : int;
  stall_windows : (int * int) list;
  first_violation : Invariant_monitor.violation option;
  phases : (string * Metrics.Recorder.t) list;
  profile : Sim.Profile.t option;
  honest_logs : (string * string) list array;
  seq_bounds : (int * int * int) list array;
  honest_ids : int array;
  submitted_by : int array;
  committed_own : int array;
  last_commit_us : int array;
  workload_streams : Workload.Engine.stream_summary list;
  mev : Workload.Engine.mev option;
  receive_logs : (string * int) list array;
  fairness : Fairness.report option;
}

let wan_ns_per_byte = 40 (* ≈ 200 Mb/s effective per node over the WAN *)

let pp_result fmt r =
  Format.fprintf fmt
    "%s n=%d: %.0f tx/s, latency p50=%.0fms mean=%.0fms, committed=%d, \
     prefix_safe=%b"
    r.protocol r.n r.throughput_tps
    (if Metrics.Recorder.is_empty r.latency_ms then 0.0
     else Metrics.Recorder.percentile 50.0 r.latency_ms)
    (Metrics.Recorder.mean r.latency_ms)
    r.committed_txs r.prefix_safe;
  if r.dropped_msgs > 0 || r.dup_msgs > 0 then
    Format.fprintf fmt ", dropped=%d dup=%d" r.dropped_msgs r.dup_msgs;
  (match r.stall_windows with
  | [] -> ()
  | ws -> Format.fprintf fmt ", stalls=%d" (List.length ws));
  (match r.first_violation with
  | None -> ()
  | Some v -> Format.fprintf fmt ", VIOLATION(%a)" Invariant_monitor.pp_violation v);
  match r.mev with
  | None -> ()
  | Some m ->
      Format.fprintf fmt ", mev_extracted=%.0fY slippage=%dY"
        m.Workload.Engine.extracted_value_y m.Workload.Engine.victim_slippage_y

let rec is_prefix ~equal la lb =
  match (la, lb) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> equal x y && is_prefix ~equal xs ys

let longest logs =
  let best = ref 0 in
  Array.iteri
    (fun k l -> if List.length l > List.length logs.(!best) then best := k)
    logs;
  !best

(* Keys identify a batch instance; the digest additionally pins its
   transaction contents, so an equivocation that splits payloads under
   one instance id is visible to content-aware oracles even though
   [prefix_safe] (keys only) would not see it. Honest nodes mostly
   commit the same batches, so each digest is memoised by key; a
   stored one is reused only for the same transactions, field for
   field. *)
let content_digests logs =
  let memo = Hashtbl.create 1024 in
  let same_txs a b =
    Int.equal (Array.length a) (Array.length b)
    && Array.for_all2
         (fun (x : Lyra.Types.tx) (y : Lyra.Types.tx) ->
           String.equal x.tx_id y.tx_id && String.equal x.payload y.payload)
         a b
  in
  let digest (c : Protocol.committed) =
    match Hashtbl.find_opt memo c.key with
    | Some (txs, d) when same_txs txs c.txs -> d
    | _ ->
        let d =
          Crypto.Merkle.root_of_leaves
            (Array.to_list
               (Array.map
                  (fun (tx : Lyra.Types.tx) -> tx.tx_id ^ ":" ^ tx.payload)
                  c.txs))
        in
        Hashtbl.replace memo c.key (c.txs, d);
        d
  in
  Array.map (List.map (fun (c : Protocol.committed) -> (c.key, digest c))) logs

let run ?(seed = 1L) ?warmup_us ?(ns_per_byte = wan_ns_per_byte)
    ?(faults = Sim.Faults.none) ?adversary ?perturb ?profile_bucket_us
    ?workload (module P : Protocol.NODE) ~n ~load ~duration_us () =
  let warmup_us =
    match warmup_us with Some w -> w | None -> P.default_warmup_us
  in
  let engine = Sim.Engine.create ~seed () in
  let net =
    P.make_net engine ~n ~jitter:0.01 ~ns_per_byte ~faults ?adversary
      ?perturb ()
  in
  let rng = Sim.Engine.rng engine in
  (* Latency is recorded at the transaction's origin node within the
     measurement window. *)
  let latency_rec = Metrics.Recorder.create () and committed = ref 0 in
  let pools : Workload.Clients.Closed.t option array = Array.make n None in
  let measure_start = ref max_int in
  (* The monitor observes every honest commit as it happens (including
     warm-up — safety has no grace period); its liveness watchdog only
     covers the measurement window, where steady progress is due. *)
  let monitor =
    Invariant_monitor.create engine ~n ~faults ~from_us:warmup_us
      ~until_us:(warmup_us + duration_us) ()
  in
  let honest_commit : (int -> bool) ref = ref (fun _ -> true) in
  (* Per-node attack-oracle bookkeeping: what each node submitted, how
     often any honest node observed a commit of its transactions, and
     the last simulated time each node's own log advanced. An eclipsed
     victim's [last_commit_us] freezes while the rest of the cluster
     moves on; a censored node keeps [committed_own] at zero despite
     [submitted_by] growing. *)
  let submitted_by = Array.make n 0 in
  let committed_own = Array.make n 0 in
  let last_commit_us = Array.make n (-1) in
  (* The open-loop workload engine (when attached) learns about commits
     through the same output callback; its pending table dedups the
     per-node observations so each tx records latency exactly once. *)
  let wl_ref : Workload.Engine.t option ref = ref None in
  let on_output id (c : Protocol.committed) =
    let honest_observer = !honest_commit id in
    if honest_observer then begin
      Invariant_monitor.on_commit monitor ~node:id ~key:c.key;
      last_commit_us.(id) <- Sim.Engine.now engine;
      match !wl_ref with
      | None -> ()
      | Some wl ->
          Array.iter
            (fun (tx : Lyra.Types.tx) ->
              Workload.Engine.on_commit wl ~tx_id:tx.tx_id ~payload:tx.payload
                ~now_us:(Sim.Engine.now engine))
            c.txs
    end;
    Array.iter
      (fun (tx : Lyra.Types.tx) ->
        if honest_observer && tx.origin >= 0 && tx.origin < n then
          committed_own.(tx.origin) <- committed_own.(tx.origin) + 1;
        (match pools.(id) with
        | Some pool when Int.equal tx.origin id ->
            Workload.Clients.Closed.tx_done pool tx.tx_id
        | _ -> ());
        if Int.equal tx.origin id && tx.submitted_at >= !measure_start then begin
          incr committed;
          Metrics.Recorder.record latency_rec
            (float_of_int (Sim.Engine.now engine - tx.submitted_at) /. 1000.)
        end)
      c.txs
  in
  (* Receive-order tap: each node's first sighting of every batch, in
     arrival order, via the adapters' [on_observe] hook. Pure
     bookkeeping — no engine interaction, so attaching it never moves
     a golden. Deduplicated by iid; the string key is formatted only
     on a first sighting. *)
  let receive_rev : (string * int) list array = Array.make n [] in
  let observed = Array.init n (fun _ -> Lyra.Types.Iid_tbl.create 256) in
  let on_observe id (b : Lyra.Types.batch) =
    let iid = b.Lyra.Types.iid in
    if not (Lyra.Types.Iid_tbl.mem observed.(id) iid) then begin
      Lyra.Types.Iid_tbl.replace observed.(id) iid ();
      receive_rev.(id) <- (Protocol.key_of_iid iid, Sim.Engine.now engine) :: receive_rev.(id)
    end
  in
  let nodes =
    Array.init n (fun id ->
        P.create net ~id ~on_observe:(on_observe id)
          ~on_output:(on_output id) ())
  in
  (honest_commit := fun id -> P.honest nodes.(id));
  (match workload with
  | None -> ()
  | Some wspec ->
      (* Arrivals spread over all nodes, but a client whose entry point
         is Byzantine retries the next replica — open-loop load should
         measure ordering behaviour, not a crashed front door. *)
      let submit ~node ~payload =
        let rec pick k =
          let id = (node + k) mod n in
          if k >= n || P.honest nodes.(id) then id else pick (k + 1)
        in
        let id = pick 0 in
        submitted_by.(id) <- submitted_by.(id) + 1;
        P.submit nodes.(id) ~payload
      in
      let wl = Workload.Engine.create engine wspec ~nodes:n ~submit () in
      wl_ref := Some wl;
      ignore
        (Sim.Engine.schedule engine
           ~delay:(max 200_000 (warmup_us - 700_000))
           (fun () -> Workload.Engine.start wl)
          : Sim.Engine.timer));
  (* Profiling is opt-in: attaching schedules sampling events, which
     perturbs the engine's event counts (never protocol behaviour). *)
  let profile =
    match profile_bucket_us with
    | None -> None
    | Some bucket_us ->
        Some
          (Sim.Profile.attach ~bucket_us engine
             ~cpus:(Array.init n (P.net_cpu net))
             ~nics:(Array.init n (P.net_nic net))
             ~until_us:(warmup_us + duration_us))
  in
  Array.iter P.start nodes;
  Invariant_monitor.start monitor;
  (* Work done before the measurement window opens (Lyra's warm-up
     instances, pipeline fill) is excluded from the decision statistics
     and accept rate by snapshotting every node's counters at the
     window boundary. *)
  let rounds_skip = Array.make n 0 in
  let acc_skip = Array.make n 0 and rej_skip = Array.make n 0 in
  let phase_skip : (string * int) list array = Array.make n [] in
  ignore
    (Sim.Engine.schedule engine ~delay:warmup_us (fun () ->
         measure_start := Sim.Engine.now engine;
         (* The workload's latency recorders measure the steady-state
            window only; submitted/committed counters keep covering the
            whole run (they are ratios, not latencies). *)
         (match (!wl_ref, workload) with
         | Some wl, Some wspec ->
             List.iteri
               (fun i _ ->
                 Metrics.Recorder.clear (Workload.Engine.stream_recorder wl i))
               wspec.Workload.Engine.streams
         | _ -> ());
         Array.iteri
           (fun i node ->
             let s = P.stats node in
             rounds_skip.(i) <- Array.length s.Protocol.decide_rounds;
             acc_skip.(i) <- s.Protocol.accepted;
             rej_skip.(i) <- s.Protocol.rejected;
             phase_skip.(i) <-
               List.map
                 (fun (label, xs) -> (label, Array.length xs))
                 s.Protocol.phases)
           nodes)
      : Sim.Engine.timer);
  (* Clients start before the measurement window so the pipeline is in
     steady state when measuring begins (submission-time filtering keeps
     the ramp out of the numbers). *)
  ignore
    (Sim.Engine.schedule engine
       ~delay:(max 200_000 (warmup_us - 700_000))
       (fun () ->
         Array.iteri
           (fun id node ->
             if P.honest node then
               let submit ~payload =
                 submitted_by.(id) <- submitted_by.(id) + 1;
                 P.submit node ~payload
               in
               let payload =
                 Workload.Clients.fixed_payload ~size:(P.tx_size net)
                   (Crypto.Rng.split rng)
               in
               (* Stagger starts: real client populations do not begin
                  in cluster-wide lockstep, and a synchronized burst
                  creates artificial queueing skew. *)
               let stagger = Crypto.Rng.int rng 300_000 in
               ignore
                 (Sim.Engine.schedule engine ~delay:stagger (fun () ->
                      match load with
                      | Closed c ->
                          let pool =
                            Workload.Clients.Closed.create ~clients:c ~payload
                              ~submit ()
                          in
                          pools.(id) <- Some pool;
                          Workload.Clients.Closed.start pool
                      | Open_rate r ->
                          Workload.Clients.Open.start
                            (Workload.Clients.Open.create engine ~rate_per_sec:r
                               ~payload ~submit ()))
                   : Sim.Engine.timer))
           nodes)
      : Sim.Engine.timer);
  Sim.Engine.run engine ~until:(warmup_us + duration_us);
  Invariant_monitor.finalize monitor;
  let honest =
    Array.of_list
      (List.filter (fun i -> P.honest nodes.(i)) (List.init n (fun i -> i)))
  in
  (* Computed after the run: timing-neutral. *)
  let outputs = Array.map (fun i -> P.output_log nodes.(i)) honest in
  let honest_logs = content_digests outputs in
  let logs = Array.map (List.map fst) honest_logs in
  (* The first longest honest log: when the run is safe, the decided
     order every honest log is a prefix of. All-pairs mutual-prefix is
     equivalent to "every log is a prefix of it" (prefixes of a common
     list are totally ordered), which is O(n·len), not O(n²·len²). *)
  let decided, decided_log =
    if Int.equal (Array.length honest) 0 then ([], [])
    else
      let k = longest logs in
      (logs.(k), outputs.(k))
  in
  let seq_bounds = Array.map (fun i -> P.seq_bounds nodes.(i)) honest in
  let final = Array.map (fun node -> P.stats node) nodes in
  let rounds_all = Metrics.Recorder.create () in
  Array.iter
    (fun i ->
      Array.iteri
        (fun k v ->
          if k >= rounds_skip.(i) then Metrics.Recorder.record rounds_all v)
        final.(i).Protocol.decide_rounds)
    honest;
  let own_acc, own_rej =
    Array.fold_left
      (fun (a, r) i ->
        ( a + final.(i).Protocol.accepted - acc_skip.(i),
          r + final.(i).Protocol.rejected - rej_skip.(i) ))
      (0, 0) honest
  in
  (* Aggregate the per-node phase breakdowns over honest nodes, in the
     protocol's pipeline order, excluding samples recorded before the
     measurement window opened (same snapshot trick as decide_rounds). *)
  let phases =
    if Int.equal (Array.length honest) 0 then []
    else
      let labels = List.map fst final.(honest.(0)).Protocol.phases in
      List.map
        (fun label ->
          let agg = Metrics.Recorder.create () in
          Array.iter
            (fun i ->
              let skip =
                match List.assoc_opt label phase_skip.(i) with
                | Some k -> k
                | None -> 0
              in
              match List.assoc_opt label final.(i).Protocol.phases with
              | Some xs ->
                  Array.iteri
                    (fun k v -> if k >= skip then Metrics.Recorder.record agg v)
                    xs
              | None -> ())
            honest;
          (label, agg))
        labels
  in
  (* MEV is a pure function of the committed order: replay the decided
     log's payload sequence. *)
  let workload_streams, mev =
    match !wl_ref with
    | None -> ([], None)
    | Some wl ->
        let committed_payloads =
          List.concat_map
            (fun (c : Protocol.committed) ->
              Array.to_list
                (Array.map (fun (tx : Lyra.Types.tx) -> tx.payload) c.txs))
            decided_log
        in
        ( Workload.Engine.summaries wl,
          Workload.Engine.mev_report wl ~committed:committed_payloads )
  in
  let receive_logs = Array.map (fun i -> List.rev receive_rev.(i)) honest in
  (* Fairness scores the decided log against every honest receive log;
     the searcher landing rate rides along when an MEV flow was
     attached. *)
  let fairness =
    if List.is_empty decided then None
    else
      let frontrun_success =
        match !wl_ref with
        | Some wl when Workload.Engine.searcher_submitted wl > 0 ->
            Some
              (float_of_int (Workload.Engine.searcher_committed wl)
              /. float_of_int (Workload.Engine.searcher_submitted wl))
        | _ -> None
      in
      Some
        (Fairness.score ?frontrun_success ~decided ~received:receive_logs ())
  in
  {
    n;
    protocol = P.name;
    window_us = duration_us;
    committed_txs = !committed;
    throughput_tps = float_of_int !committed *. 1e6 /. float_of_int duration_us;
    latency_ms = latency_rec;
    decide_rounds = Metrics.Recorder.mean rounds_all;
    accept_rate =
      (if own_acc + own_rej = 0 then 0.0
       else float_of_int own_acc /. float_of_int (own_acc + own_rej));
    messages = P.net_messages net;
    bytes = P.net_bytes net;
    prefix_safe =
      Array.for_all (fun l -> is_prefix ~equal:String.equal l decided) logs;
    late_accepts =
      Array.fold_left
        (fun acc i -> acc + final.(i).Protocol.late_accepts)
        0 honest;
    dropped_msgs = P.net_dropped net;
    dup_msgs = P.net_dup net;
    stall_windows = Invariant_monitor.stall_windows monitor;
    first_violation = Invariant_monitor.first_violation monitor;
    phases;
    profile;
    honest_logs;
    seq_bounds;
    honest_ids = honest;
    submitted_by;
    committed_own;
    last_commit_us;
    workload_streams;
    mev;
    receive_logs;
    fairness;
  }

(* The LAT3R anatomy table: one row per pipeline phase, aggregated over
   honest nodes' own batches within the measurement window. *)
let phase_table r =
  let header = [ "phase"; "samples"; "mean_ms"; "p50_ms"; "p95_ms"; "p99_ms" ] in
  let rows =
    List.map
      (fun (label, rec_) ->
        if Metrics.Recorder.is_empty rec_ then
          [ label; "0"; "-"; "-"; "-"; "-" ]
        else
          let sorted = Metrics.Recorder.sorted rec_ in
          let mean, p50, p95, p99, _ = Metrics.Stats.summary_sorted sorted in
          [
            label;
            string_of_int (Array.length sorted);
            Printf.sprintf "%.1f" mean;
            Printf.sprintf "%.1f" p50;
            Printf.sprintf "%.1f" p95;
            Printf.sprintf "%.1f" p99;
          ])
      r.phases
  in
  Metrics.Table.render ~header rows
